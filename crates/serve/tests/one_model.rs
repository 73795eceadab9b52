//! One trained state, one served model: the same model built five ways
//! — a fresh scan, a reload of its bytes, a prefix extended at several
//! split points, a longer model with a prefix retracted, and a shorter
//! model extended and then retracted — encodes to the same bytes and
//! answers `top_k(25)` with the same seeds and the same gain bits. Each
//! way's first top-k gain is also its seed's single-seed σ_cd, bit for
//! bit.
//!
//! The cases are the golden presets × policy × λ of `cdim-core`'s
//! `overlay_kernel` suite. The served model is the log's last three
//! quarters of actions; the first quarter is what the retracting builds
//! expire.

use cdim_actionlog::ActionLog;
use cdim_core::{scan, CreditPolicy, Parallelism};
use cdim_datagen::presets;
use cdim_graph::DirectedGraph;
use cdim_serve::ModelSnapshot;

/// Top-k budget of the answer check.
const K: usize = 25;

/// The seeds and gain bits of a model's `top_k(K)`.
fn answer(model: &ModelSnapshot) -> (Vec<u32>, Vec<u64>) {
    let top = model.top_k(K);
    (top.seeds, top.marginal_gains.iter().map(|g| g.to_bits()).collect())
}

/// Each way of building the model of `full`'s actions from `expire` on,
/// named.
fn five_ways(
    graph: &DirectedGraph,
    full: &ActionLog,
    expire: usize,
    policy: &CreditPolicy,
    lambda: f64,
) -> Vec<(String, ModelSnapshot)> {
    let par = Parallelism::fixed(2);
    let fresh =
        |log: &ActionLog| ModelSnapshot::from_store(scan(graph, log, policy, lambda).unwrap());
    let (expired, window) = full.split_off_prefix(expire);
    let model = fresh(&window);
    let mut ways = vec![
        ("reloaded".to_string(), ModelSnapshot::from_bytes(&model.to_bytes()).unwrap()),
        ("fresh".to_string(), model),
    ];
    let n = window.num_actions();
    for split in [0, n / 3, 2 * n / 3, n] {
        let (prefix, delta) = window.split_at_action(split);
        let extended = fresh(&prefix).extend(graph, &delta, policy, par).unwrap();
        ways.push((format!("extended at {split}"), extended));
    }
    let retracted = fresh(full).retract(graph, &expired, policy, par).unwrap();
    ways.push(("retracted".to_string(), retracted));
    let (prefix, delta) = full.split_at_action((expire + full.num_actions()) / 2);
    let extended = fresh(&prefix).extend(graph, &delta, policy, par).unwrap();
    let retracted = extended.retract(graph, &expired, policy, par).unwrap();
    ways.push(("extended, then retracted".to_string(), retracted));
    ways
}

/// Calls `check` with each case's name and its five ways to the model.
fn each_case(mut check: impl FnMut(&str, &[(String, ModelSnapshot)])) {
    for preset in ["tiny", "flixster_small_div8"] {
        let ds = match preset {
            "tiny" => presets::tiny(),
            _ => presets::flixster_small().scaled_down(8),
        }
        .generate();
        let expire = ds.log.num_actions() / 4;
        for time_aware in [false, true] {
            // The fixed-policy contract: learned once from the whole log.
            let policy = if time_aware {
                CreditPolicy::time_aware(&ds.graph, &ds.log)
            } else {
                CreditPolicy::Uniform
            };
            for lambda in [0.0, 0.001] {
                let case = format!("{preset} time_aware={time_aware} lambda={lambda}");
                check(&case, &five_ways(&ds.graph, &ds.log, expire, &policy, lambda));
            }
        }
    }
}

#[test]
fn every_way_to_the_model_encodes_and_answers_identically() {
    each_case(|case, ways| {
        let (_, fresh) = ways.iter().find(|(way, _)| way == "fresh").unwrap();
        let (bytes, want) = (fresh.to_bytes(), answer(fresh));
        assert_eq!(want.0.len(), K, "{case}: a full top-{K}");
        for (way, model) in ways {
            assert!(model.to_bytes() == bytes, "{case}: {way} encodes differently");
            let got = answer(model);
            assert_eq!(got.0, want.0, "{case}: {way} picks other seeds");
            let differ = got.1.iter().zip(&want.1).filter(|(a, b)| a != b).count();
            assert_eq!(differ, 0, "{case}: {way} differs in {differ}/{K} gain bits");
        }
    });
}

/// CELF's first round and the commit-free queries sum one gain formula in
/// one order: a top-k's first gain is its seed's single-seed σ_cd, bit for
/// bit, however the model was built.
#[test]
fn the_first_top_k_gain_is_the_single_seed_spread() {
    each_case(|case, ways| {
        for (way, model) in ways {
            let top = model.top_k(K);
            let (first, gain) = (top.seeds[0], top.marginal_gains[0].to_bits());
            let single = model.single_marginal_gain(first).to_bits();
            assert_eq!(gain, single, "{case}: {way}: first gain vs single-seed gain of {first}");
            let spread = model.telescoped_spread(&top.seeds[..1]).to_bits();
            assert_eq!(gain, spread, "{case}: {way}: first gain vs σ_cd({{{first}}})");
        }
    });
}
