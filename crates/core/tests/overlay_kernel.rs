//! State-level bit-identity of the compact engine's Algorithm-5 update
//! against the mutable selector, on the golden presets.
//!
//! After every committed CELF seed, the overlay's live credits and SC map
//! must equal [`CdSelector::dump`] entry for entry, bit for bit; the CELF
//! selections (seeds, evaluation counts, gain bits) must match too. The
//! commit-free σ_cd and gain queries must equal the commit loop they
//! replace.

use cdim_core::{scan, CdSelector, CompactSelector, CreditPolicy, SelectorDump};
use cdim_datagen::presets;

/// Seeds committed per case.
const K: usize = 10;

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
fn overlay_state_matches_mutable_after_every_seed() {
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
                let dump =
                    CdSelector::new(scan(&ds.graph, &ds.log, &policy, lambda).unwrap()).dump();

                let want = CdSelector::from_dump(&dump).select(K);
                let got = CompactSelector::from_dump(&dump).overlay().select(K);
                assert_eq!(got.seeds, want.seeds, "{case}: seeds");
                assert_eq!(got.evaluations, want.evaluations, "{case}: evaluations");
                let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.marginal_gains), bits(&want.marginal_gains), "{case}: gains");

                let mut mutable = CdSelector::from_dump(&dump);
                let mut overlay = CompactSelector::from_dump(&dump).overlay();
                for &s in &want.seeds {
                    mutable.update(s);
                    overlay.update(s);
                    assert!(
                        dump_bits(&overlay.to_dump()) == dump_bits(&mutable.dump()),
                        "{case}: state differs after committing {s}"
                    );
                }
            }
        }
    }
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
            let store = scan(&ds.graph, &ds.log, &policy, lambda).unwrap();
            let top = CdSelector::new(store.clone()).select(K).seeds;
            for committed in [0usize, 2] {
                let case = format!("{preset} lambda={lambda} committed={committed}");
                let mut sel = CdSelector::new(store.clone());
                for &s in &top[..committed] {
                    sel.update(s);
                }
                let compact = CompactSelector::from_dump(&sel.dump());
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
