//! Fixtures shared by the crate's unit tests and proptests: the §4
//! running example, the proptests' random eight-user instances, and the
//! compact engine's oracle checks.

use crate::celf::MgMode;
use crate::compact::{pair_key, CompactSelector, OverlaySelector};
use crate::policy::CreditPolicy;
use crate::reference::{self, dump_bits, CdSelector, CreditStoreDump, SelectorDump};
use crate::scan::scan;
use cdim_actionlog::{ActionLog, ActionLogBuilder};
use cdim_graph::{DirectedGraph, GraphBuilder};
use cdim_util::Rng;

/// The running example of §4 (Figure 1), reconstructed so that the
/// paper's hand-computed credits hold:
///
/// users: v=0, q=1, t=2, w=3, z=4, u=5
/// edges: v→t, q→t, v→w, t→z, w→z is absent…
///
/// We need: d_in(t)=2 with parents {v, q}; d_in(w)=1 parent {v};
/// d_in(z)=1 parent {t}; d_in(u)=4 parents {v, t, w, z}.
/// Then Γ_{v,t} = 0.5, Γ_{v,w} = 1, Γ_{v,z} = 0.5, and
/// Γ_{v,u} = 1·0.25 + 0.5·0.25 + 1·0.25 + 0.5·0.25 = 0.75 — the
/// paper's worked value.
pub(crate) fn figure1() -> (DirectedGraph, ActionLog) {
    let graph = GraphBuilder::new(6)
        .edges([
            (0, 2), // v -> t
            (1, 2), // q -> t
            (0, 3), // v -> w
            (2, 4), // t -> z
            (0, 5), // v -> u
            (2, 5), // t -> u
            (3, 5), // w -> u
            (4, 5), // z -> u
        ])
        .build();
    let mut b = ActionLogBuilder::new(6);
    b.push(0, 0, 0.0); // v
    b.push(1, 0, 0.5); // q
    b.push(2, 0, 1.0); // t
    b.push(3, 0, 1.5); // w
    b.push(4, 0, 2.0); // z
    b.push(5, 0, 2.5); // u
    (graph, b.build())
}

/// A proptest instance over eight users: `edges` as the graph, `events`
/// as `(user, action, time)` log rows, and the uniform policy or the
/// time-aware one learned on the log itself.
pub(crate) fn eight_user_instance(
    edges: &[(u32, u32)],
    events: &[(u32, u32, u64)],
    time_aware: bool,
) -> (DirectedGraph, ActionLog, CreditPolicy) {
    let graph = GraphBuilder::new(8).edges(edges.iter().copied()).build();
    let mut b = ActionLogBuilder::new(8);
    for &(u, a, t) in events {
        b.push(u, a, t as f64);
    }
    let log = b.build();
    let policy =
        if time_aware { CreditPolicy::time_aware(&graph, &log) } else { CreditPolicy::Uniform };
    (graph, log, policy)
}

/// Deterministic random instance: `n` users, `actions` actions.
pub(crate) fn random_instance(seed: u64, n: u32, actions: u32) -> (DirectedGraph, ActionLog) {
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
pub(crate) fn committed(model: &CompactSelector, seeds: &[u32]) -> CompactSelector {
    let mut overlay = model.overlay();
    for &s in seeds {
        overlay.update(s);
    }
    overlay.freeze()
}

/// A random instance's model with its first `k` CELF seeds committed,
/// as a dump.
pub(crate) fn trained_dump(seed: u64, k: usize) -> SelectorDump {
    let (graph, log) = random_instance(seed, 40, 12);
    let model = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
    reference::dump_of(&committed(&model, &model.overlay().select(k).seeds))
}

/// `log` scanned under `policy`, `seeds` committed in order, frozen.
pub(crate) fn frozen(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    lambda: f64,
    seeds: &[u32],
) -> CompactSelector {
    committed(&scan(graph, log, policy, lambda).unwrap(), seeds)
}

/// The oracle's gain of `x` under `mode`.
pub(crate) fn oracle_mg(oracle: &CdSelector, x: u32, mode: MgMode) -> f64 {
    match mode {
        MgMode::Theorem3 => oracle.compute_mg(x),
        MgMode::Pseudocode => oracle.compute_mg_pseudocode(x),
    }
}

/// Commits `seeds` in order on an overlay, each commit made by `commit`,
/// and on the oracle, both restored from `dump`. Before the first commit
/// and after each, the overlay's frozen state is the oracle's dump bit
/// for bit, and every user's gain agrees bit for bit in both modes, from
/// `mg` and from CELF's one-sweep first pass. Those are all the values
/// CELF reads.
pub(crate) fn assert_commits_match_oracle(
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
pub(crate) fn assert_sharded_commits_match_serial(dump: &SelectorDump, seeds: &[u32]) {
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
                    assert_eq!(sharded.mg(u, mode).to_bits(), want_bits, "{mode:?} {u}, {case}");
                    let bits = (got[u as usize].to_bits(), want[u as usize].to_bits());
                    assert_eq!(bits.0, bits.1, "{mode:?} first-round {u}, {case}");
                }
            }
        }
        assert_commits_match_oracle(dump, seeds, |overlay, x| overlay.commit(x, shards, 0));
    }
}

/// Credits and SC values that reach the kernel's edge cases: a stored
/// `0.0`, values around the 1e-15 removal threshold, products that
/// cancel a credit exactly, and the SC clamp at 1.
const VALUES: [f64; 8] = [0.0, 1e-16, 1e-15, 0.25, 0.5, 1.0, 0.3, 0.7];

/// A hand-built λ = 0 state of six users and two actions: `entries` are
/// `(v, u, action, value)` credits (self-credits and repeats dropped),
/// `extra` more `(user, action)` pairs performed, `sc` are
/// `(action, user, value)` SC entries, values indices into [`VALUES`].
/// Every credit's users and every SC key's user performed the action, as
/// in any scanned state.
pub(crate) fn edge_case_dump(
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
