//! The commit-free seed-set queries,
//! [`CompactSelector::telescoped_spread`] and
//! [`CompactSelector::gain_over`]: a seed sequence's Algorithm-5 commits
//! replayed on copies of just the rows they touch.
//!
//! ## Query engine cost
//!
//! Only a top-k copies credits. Seed-set queries, single seeds included,
//! commit nothing: for a sequence `q` they visit the actions the
//! evaluated users performed, and per action copy only the out rows of
//! the users of `q` who performed it, replaying each earlier user's
//! Algorithm-5 update on those copies. Finding those actions and users
//! costs two sorts, of `q` and of its users' actions, and one binary
//! search per committed seed. Per action it is then one `sc_keys` binary search and
//! one row lookup per such user, plus two binary searches and one row
//! merge per ordered pair of them; the copies are those users' rows,
//! never model-sized (see `sequence_gains`).

use super::{pair_key, CompactData, CompactSelector};
use crate::celf::MgMode;
use std::ops::Range;

impl CompactSelector {
    /// σ_cd(S) via Theorem 3: the marginal gains of `seeds` in the given
    /// order, each over the committed seeds and the ones before it, summed
    /// in that order. A repeated seed, or one already committed into the
    /// model, adds 0. Bit-identical to `compute_mg`/`update` on an
    /// [`overlay`](Self::overlay), without committing. The cost is
    /// O(n log n) in the seeds and their actions, plus a replay between
    /// each pair of seeds that share an action.
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
}

/// Theorem-3 gain of each position of the sequence `q` over `data`'s
/// state, each evaluated after committing the positions before it: what
/// an [`OverlaySelector`](super::OverlaySelector) returns from
/// `compute_mg(q[i])` after `update(q[0])`, …, `update(q[i − 1])`, bit
/// for bit, without committing anything. A repeated user, or one
/// committed in the arena, gains 0. With `last_only`, only the last
/// position is evaluated (the others come back 0).
///
/// Why it is exact. A commit of `x` in action `a` changes only action-`a`
/// state, and a later gain or commit of a sequence user `y` in `a` reads
/// only `y`'s out row and `Γ_{S,y}(a)`. The commit writes those from
/// `x`'s out row alone: Lemma 3 adds `Γ_{x,y}·(1 − Γ_{S,x})` to
/// `Γ_{S,y}`, the column retirement removes `(y, x)`, and Lemma 2
/// subtracts `Γ_{y,x}·Γ_{x,u}` from `y`'s row. So the rows and SC values
/// of the sequence users form a closed system: per action, the evaluator
/// copies just those rows and replays each earlier user's commit on them
/// with the kernel's expressions (`apply_seed_to_action`). Actions are
/// visited in ascending order, each user's terms summed in that order,
/// which is the order `compute_mg` sums them in.
///
/// Cost: one sort of `q`'s `(user, position)` pairs, one binary search
/// among them per committed seed, and one sort of the users' visited
/// `(action, user)` pairs, so O(n log n) in `q`'s length and its users'
/// actions (with `last_only`, a user's actions shared with the last user
/// are found by searching the shorter row in the longer). Then per
/// visited action, one binary search in `sc_keys` and
/// one row lookup per sequence user that performed it, a copy of those
/// users' out rows after the first, and per ordered pair of them two
/// binary searches and one merge of their rows. Buffers are sized by the
/// sequence's users and their rows; nothing of model size is copied.
fn sequence_gains(data: &CompactData, q: &[u32], last_only: bool) -> Vec<f64> {
    let mut out = vec![0.0f64; q.len()];
    // Users whose gain or commit can matter: first appearances of users
    // not committed in the arena, in sequence order. Sorted by user, each
    // user's first appearance leads its run.
    let mut firsts: Vec<(u32, usize)> = q.iter().copied().zip(0..).collect();
    firsts.sort_unstable();
    firsts.dedup_by_key(|&mut (x, _)| x);
    for &s in data.seeds() {
        if let Ok(k) = firsts.binary_search_by_key(&s, |&(x, _)| x) {
            firsts[k].1 = usize::MAX;
        }
    }
    firsts.retain(|&(_, i)| i != usize::MAX);
    firsts.sort_unstable_by_key(|&(_, i)| i);
    let (users, position): (Vec<u32>, Vec<usize>) = firsts.into_iter().unzip();
    // With `last_only`, only the last user can be wanted, and commits in
    // actions it did not perform change nothing it reads.
    let visited = match users.last() {
        _ if !last_only => None,
        Some(&x) if position.last() == Some(&(q.len() - 1)) => Some(data.ua_row(x)),
        _ => return out,
    };
    let wanted: Vec<bool> = position.iter().map(|&i| !last_only || i + 1 == q.len()).collect();
    // Every visited (action, index into `users`) pair, sorted: actions
    // ascend, and each action's users come in sequence order. The stable
    // sort merges the users' ascending runs.
    let mut pairs: Vec<u64> = Vec::new();
    for (&x, i) in users.iter().zip(0..) {
        let row = data.ua_row(x);
        match visited {
            // An earlier user's actions shared with the last user's, each
            // searched from the shorter row in the longer.
            Some(v) if i + 1 < users.len() as u32 => {
                let (short, long) = if row.len() < v.len() { (row, v) } else { (v, row) };
                let shared = short.iter().filter(|a| long.binary_search(a).is_ok());
                pairs.extend(shared.map(|&a| pair_key(a, i)));
            }
            _ => pairs.extend(row.iter().map(|&a| pair_key(a, i))),
        }
    }
    pairs.sort();
    let (mut gains, mut scratch) = (vec![0.0f64; users.len()], ReplayScratch::default());
    for group in pairs.chunk_by(|p, r| p >> 32 == r >> 32) {
        scratch.present.clear();
        scratch.present.extend(group.iter().map(|&p| p as u32 as usize));
        let a = (group[0] >> 32) as u32;
        replay_action(data, a, &users, &wanted, &mut gains, &mut scratch);
    }
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
    use crate::compact::CompactSelector;
    use crate::reference::{self, CreditStoreDump, SelectorDump};
    use std::time::{Duration, Instant};

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

    /// 100 k users who each performed an action of their own: the spread
    /// of all of them sorts the sequence and its actions once, where a
    /// scan of every user's actions per visited action would take
    /// 10^10 steps.
    #[test]
    fn a_spread_of_100k_users_is_linearithmic() {
        const N: u32 = 100_000;
        let compact = reference::arena_of(&SelectorDump {
            store: CreditStoreDump {
                lambda: 0.0,
                user_actions: (0..N).map(|a| vec![a]).collect(),
                inv_au: vec![1.0; N as usize],
                credits: vec![Vec::new(); N as usize],
            },
            ..SelectorDump::default()
        });
        let seeds: Vec<u32> = (0..N).rev().collect();
        let start = Instant::now();
        let spread = compact.telescoped_spread(&seeds);
        let took = start.elapsed();
        assert_eq!(spread, f64::from(N));
        assert!(took < Duration::from_secs(1), "{N} users took {took:?}");
    }
}

#[cfg(test)]
mod proptests {
    use crate::compact::CompactSelector;
    use crate::reference;
    use crate::testing::{edge_case_dump, eight_user_instance, frozen};
    use cdim_util::AlignedBuf;
    use proptest::prelude::*;
    use std::sync::Arc;

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

    proptest! {
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
            let (graph, log, policy) = eight_user_instance(&edges, &events, time_aware);
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
    }
}
