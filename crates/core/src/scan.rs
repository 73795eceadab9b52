//! Algorithm 2 — the one-pass scan of the action log.
//!
//! The log is processed action by action, chronologically within each
//! action (the [`cdim_actionlog::ActionLog`] invariant). For each
//! activation `(u, a, t_u)` the scan assigns direct credit `γ_{v,u}` to
//! each potential influencer and propagates total credit transitively:
//!
//! ```text
//! UC[v][u][a] += γ_{v,u}                        (direct,      if γ ≥ λ)
//! UC[w][u][a] += γ_{v,u} · UC[w][v][a]          (transitive,  if term ≥ λ)
//! ```
//!
//! Credits into `v` are final before any later user activates, because a
//! node only receives credit at its own activation — so a single pass
//! computes the full recursive total credit of Eq 5 exactly (up to the λ
//! truncation, whose accuracy/memory trade-off Table 4 quantifies).
//!
//! ## The kernel: dense columns, canonical rows
//!
//! The scan reads G(a) from one [`PropagationArena`] of the whole log,
//! built before the scan (by [`scan_with`], or by a training entry point
//! that also hands it to the policy learner and the spread evaluator)
//! and dropped before the merge. The DAG's parents come with their
//! in-edge positions, so the policy reads each `τ_{v,u}` directly and
//! writes γ into a buffer the shard reuses.
//!
//! Parents are earlier performers, which makes the per-action kernel
//! (`scan_action`) a dense accumulation. Each performer's incoming
//! *column* `Γ_{·,u}(a)` is built once, at `u`'s activation, from the
//! already-final columns of its DAG parents, in a DAG-local array indexed
//! by the source's position in the DAG. A stamp per position marks the first touch of an entry, which
//! stores the amount; later touches add to it. Parents are visited in DAG
//! order and each parent's column in its own first-touch order, so every
//! entry sees the same f64 additions, in the same order, as the hash-map
//! kernel this one replaced ([`crate::reference::scan_dump`], its bitwise
//! oracle). An entry whose amount is `0.0` (an underflowed product) is
//! still stored: first touch is the stamp, never the value.
//!
//! The kernel then emits the action's rows in the arena's canonical
//! order: out rows by `(v, u)` carrying the credits, inc rows by
//! `(u, v)`, both by two counting passes over the DAG's positions ranked
//! by user id.
//!
//! ## The pipeline
//!
//! Credit assignment never crosses an action boundary, so the scan is a
//! pipeline with no shared state:
//!
//! 1. **kernel** — `scan_action` appends one action's rows to a buffer,
//!    a pure function of `(G(a), policy, λ)`;
//! 2. **parallel driver** — [`scan_dags`] shards the action range over
//!    [`cdim_util::pool`] workers ([`Parallelism`] controls how many;
//!    shard 0 runs on the calling thread), each shard filling its own
//!    row buffers: the row-sized sections as `Vec`s, the entry-sized ones
//!    (targets, credits, sources) in fixed-capacity blocks of whole
//!    actions, so an action's entries are one slice and no buffer grows
//!    by doubling;
//! 3. **merge** — the shards' rows are written in action order straight
//!    into the sections of one arena, offsets rebased, and each block is
//!    freed as soon as it has been copied; the arena is returned as the
//!    seedless [`CompactSelector`]. The heap peak is the arena plus the
//!    shards' rows, at the moment the copy starts.
//!
//! There is no freeze stage: the scan's result *is* the model a server
//! answers with and a snapshot file holds. Every shard runs the same
//! kernel and the merge is an ordered concatenation, so the arena — and
//! its canonical dump ([`crate::reference::dump_of`]) — is
//! **bit-identical for every thread count**.

use crate::compact::{
    arena, one_over_au, ActionRows, CompactSelector, Overflow, BLOCK_ENTRIES, FIRST_BLOCK_ENTRIES,
};
use crate::policy::CreditPolicy;
use crate::telemetry::ScanTelemetry;
use cdim_actionlog::{ActionId, ActionLog, PropagationArena, PropagationDag};
use cdim_graph::DirectedGraph;
use cdim_util::pool::{parallel_map_shards, Parallelism};
use cdim_util::Timer;
use std::sync::Arc;

/// Input validation failures of [`scan`].
///
/// The scan is the entry point a long-lived service feeds untrusted
/// retraining requests into, so bad inputs must surface as values, not
/// process aborts.
#[derive(Clone, Debug, PartialEq)]
pub enum ScanError {
    /// The truncation threshold was negative or NaN.
    InvalidLambda {
        /// The offending λ.
        lambda: f64,
    },
    /// Graph and log disagree on the user universe, so user ids cannot be
    /// shared between them.
    UserUniverseMismatch {
        /// Nodes in the social graph.
        graph_nodes: usize,
        /// Users in the action log.
        log_users: usize,
    },
    /// The trained state does not fit the arena's u32 offsets.
    ArenaOverflow {
        /// The first section that overflows.
        section: &'static str,
        /// Its element count.
        count: usize,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::InvalidLambda { lambda } => {
                write!(f, "truncation threshold must be a non-negative number, got {lambda}")
            }
            ScanError::UserUniverseMismatch { graph_nodes, log_users } => write!(
                f,
                "graph and log must share a user universe ({graph_nodes} nodes vs {log_users} users)"
            ),
            ScanError::ArenaOverflow { section, count } => {
                write!(f, "model too large: {section} = {count} exceeds the u32 offset space")
            }
        }
    }
}

impl std::error::Error for ScanError {}

impl From<Overflow> for ScanError {
    fn from(Overflow { section, count }: Overflow) -> Self {
        ScanError::ArenaOverflow { section, count }
    }
}

/// Buffers of [`scan_action`], reused across the actions of a shard so
/// the kernel allocates nothing per action once they have grown.
#[derive(Debug, Default)]
struct Scratch {
    /// γ of the action's propagation edges, in DAG order.
    gamma: Vec<f64>,
    /// Column `i` (the credits into DAG position `i`) is
    /// `src[col[i]..col[i + 1]]` / `val[..]`, in first-touch order, with
    /// sources as DAG positions.
    col: Vec<usize>,
    src: Vec<u32>,
    val: Vec<f64>,
    /// The column being built: `amount[w]` is live where `stamp[w]` is
    /// the position being activated; `touched` lists those `w` in
    /// first-touch order.
    amount: Vec<f64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    /// DAG positions in user-id order, and each position's rank there.
    by_user: Vec<u32>,
    rank: Vec<u32>,
    /// Counting-pass cursors by source rank (out) and target rank (inc).
    out: Vec<usize>,
    inc: Vec<usize>,
    /// The target rank of each of the action's out entries.
    target_rank: Vec<u32>,
}

/// Stage-1 kernel: appends the credits of `dag`'s action to `rows`, in
/// the arena's canonical row order.
///
/// A pure function of `(G(a), policy, λ)` — what the reused scratch
/// buffers keep between actions never reaches its output — which is what
/// makes the action-sharded parallel scan of [`scan_dags`] exact: running
/// this kernel on any thread, in any order, yields the same rows as the
/// sequential loop, down to the f64 accumulation order.
fn scan_action(
    dag: &PropagationDag<'_>,
    policy: &CreditPolicy,
    lambda: f64,
    s: &mut Scratch,
    rows: &mut ActionRows,
) {
    let n = dag.len();
    let Scratch { gamma: gammas, col, src, val, amount, stamp, touched, .. } = s;
    policy.edge_credits(dag, gammas);
    col.clear();
    col.push(0);
    src.clear();
    val.clear();
    amount.resize(n, 0.0);
    stamp.clear();
    stamp.resize(n, u32::MAX);
    let mut edge = 0usize;
    for i in 0..n {
        let here = i as u32;
        touched.clear();
        let mut touch = |w: u32, x: f64| {
            let w = w as usize;
            if stamp[w] == here {
                amount[w] += x;
            } else {
                stamp[w] = here;
                amount[w] = x;
                touched.push(w as u32);
            }
        };
        for &p in dag.parents_of(i) {
            let gamma = gammas[edge];
            edge += 1;
            if gamma <= 0.0 {
                continue;
            }
            if gamma >= lambda {
                touch(p, gamma);
            }
            // Transitive credit: everyone upstream of the parent relays
            // through this activation.
            let relays = col[p as usize]..col[p as usize + 1];
            if relays.is_empty() {
                continue;
            }
            // Truncation predicate, hoisted: `c ≥ λ/γ` with one division
            // per edge instead of one multiply per source. In exact
            // arithmetic this equals `c·γ ≥ λ`; in f64 the two can differ
            // by one ulp at the λ boundary, which truncation tolerates by
            // design (λ itself is a coarse accuracy/memory dial, §5.3).
            // What matters is that the predicate is a pure function of
            // `(c, γ, λ)` — identical on every thread.
            let bound = lambda / gamma;
            for k in relays {
                let (w, c) = (src[k], val[k]);
                if w != here && c >= bound {
                    touch(w, c * gamma);
                }
            }
        }
        for &w in touched.iter() {
            src.push(w);
            val.push(amount[w as usize]);
        }
        col.push(src.len());
    }
    emit(dag, s, rows);
}

/// Appends the columns in `s` to `rows` as one action: out rows sorted by
/// `(v, u)` with their credits, inc rows sorted by `(u, v)`.
fn emit(dag: &PropagationDag<'_>, s: &mut Scratch, rows: &mut ActionRows) {
    let n = dag.len();
    let entries = s.src.len();
    let user = |i: u32| dag.user(i as usize);
    if entries > 0 {
        let Scratch { col, src, val, by_user, rank, out, inc, target_rank, .. } = s;
        by_user.clear();
        by_user.extend(0..n as u32);
        by_user.sort_unstable_by_key(|&i| user(i));
        rank.resize(n, 0);
        for (r, &i) in by_user.iter().enumerate() {
            rank[i as usize] = r as u32;
        }

        // Out rows, one per source in user order: count each source's
        // entries, then deal the columns out target by target in user
        // order, so every row's targets come out ascending.
        out.clear();
        out.resize(n + 1, 0);
        for &w in src.iter() {
            out[rank[w as usize] as usize + 1] += 1;
        }
        for r in 0..n {
            out[r + 1] += out[r];
        }
        let base = rows.entries.len();
        for r in 0..n {
            if out[r + 1] > out[r] {
                rows.out_row_user.push(user(by_user[r]));
                rows.out_row_offsets.push((base + out[r + 1]) as u32);
            }
        }
        let slots = rows.entries.push(entries);
        target_rank.resize(entries, 0);
        // `out[r]` walks source `r`'s run; afterwards it is the run's end.
        for (t_rank, &t) in by_user.iter().enumerate() {
            for k in col[t as usize]..col[t as usize + 1] {
                let slot = &mut out[rank[src[k] as usize] as usize];
                slots.out_targets[*slot] = user(t);
                slots.out_credits[*slot] = val[k];
                target_rank[*slot] = t_rank as u32;
                *slot += 1;
            }
        }

        // Inc rows, one per target in user order; walking the out rows in
        // source order fills every row's sources ascending.
        inc.clear();
        let mut at = 0usize;
        for &t in by_user.iter() {
            inc.push(at);
            let len = col[t as usize + 1] - col[t as usize];
            if len > 0 {
                at += len;
                rows.inc_row_user.push(user(t));
                rows.inc_row_offsets.push((base + at) as u32);
            }
        }
        let mut start = 0usize;
        for (r, &end) in out[..n].iter().enumerate() {
            for &t_rank in &target_rank[start..end] {
                let slot = &mut inc[t_rank as usize];
                slots.inc_sources[*slot] = user(by_user[r]);
                *slot += 1;
            }
            start = end;
        }
    }
    rows.out_act_rows.push(rows.out_row_user.len() as u32);
    rows.inc_act_rows.push(rows.inc_row_user.len() as u32);
}

/// Scans `log` into the trained model — a [`CompactSelector`] with no
/// seeds — using all available cores.
///
/// `lambda` is the truncation threshold (§5.3): credit increments below it
/// are discarded, bounding memory at a quantified cost in accuracy. Pass
/// `0.0` for the exact store.
///
/// Equivalent to [`scan_with`] under [`Parallelism::auto`] — the result
/// does not depend on the thread count.
pub fn scan(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    lambda: f64,
) -> Result<CompactSelector, ScanError> {
    scan_with(graph, log, policy, lambda, Parallelism::auto())
}

/// Scans `log` with an explicit thread budget: [`check_inputs`], then
/// [`scan_dags`] over a [`PropagationArena`] of the whole log.
pub fn scan_with(
    graph: &DirectedGraph,
    log: &ActionLog,
    policy: &CreditPolicy,
    lambda: f64,
    parallelism: Parallelism,
) -> Result<CompactSelector, ScanError> {
    check_inputs(graph, log, lambda)?;
    scan_dags(PropagationArena::build(log, graph, log.actions()), policy, lambda, parallelism)
}

/// The checks every training entry point runs before it builds any
/// propagation DAG: `lambda` is a non-negative number, and `graph` and
/// `log` share one user universe (a log user outside the graph would
/// otherwise abort the DAG build).
pub fn check_inputs(graph: &DirectedGraph, log: &ActionLog, lambda: f64) -> Result<(), ScanError> {
    if lambda.is_nan() || lambda < 0.0 {
        return Err(ScanError::InvalidLambda { lambda });
    }
    if graph.num_nodes() != log.num_users() {
        return Err(ScanError::UserUniverseMismatch {
            graph_nodes: graph.num_nodes(),
            log_users: log.num_users(),
        });
    }
    Ok(())
}

/// Scans the DAGs of `dags`, which holds every action of its log, built
/// after [`check_inputs`] accepted the log, its graph and `lambda`.
///
/// Stage 2 of the pipeline: the action range is split into one contiguous
/// chunk per worker (deterministically — see
/// [`cdim_util::pool::split_ranges`]), each worker runs the kernel over
/// its chunk into its own row buffers, and the merge writes the buffers
/// in action order into the model's arena, freeing each entry block once
/// copied. Since actions share no credit state, the arena is
/// **bit-identical to the sequential scan for every `parallelism`** —
/// callers choose a thread count for speed, never for semantics. `dags` is dropped before the merge, so the DAGs and the
/// model's arena are never held at once.
///
/// # Panics
/// Panics if `dags` does not hold every action of its log.
pub fn scan_dags(
    dags: PropagationArena<'_>,
    policy: &CreditPolicy,
    lambda: f64,
    parallelism: Parallelism,
) -> Result<CompactSelector, ScanError> {
    scan_in_blocks(dags, policy, lambda, parallelism, (FIRST_BLOCK_ENTRIES, BLOCK_ENTRIES))
}

/// [`scan_dags`] with shard entry blocks of the given `(first, later)`
/// sizes; the arena does not depend on them.
fn scan_in_blocks(
    dags: PropagationArena<'_>,
    policy: &CreditPolicy,
    lambda: f64,
    parallelism: Parallelism,
    (first, block): (usize, usize),
) -> Result<CompactSelector, ScanError> {
    let log = dags.log();
    assert_eq!(dags.actions(), log.actions(), "the scan reads every action of the log");

    // Stages 2 + 3: fan the kernel out over action chunks, merge in order.
    // Timing wraps the shard loop and the parallel section as a whole —
    // never the per-action kernel — so instrumentation cannot perturb the
    // model bytes and adds nothing to the hot path.
    let wall = Timer::start();
    let shards = parallel_map_shards(parallelism, log.num_actions(), |_, range| {
        let shard_timer = Timer::start();
        let mut scratch = Scratch::default();
        let mut rows = ActionRows::with_blocks(first, block);
        for a in range {
            scan_action(&dags.dag(a as ActionId), policy, lambda, &mut scratch, &mut rows);
        }
        rows.entries.seal();
        (rows, shard_timer.secs())
    });
    let wall_secs = wall.secs();
    drop(dags);
    let shard_secs: Vec<f64> = shards.iter().map(|(_, s)| *s).collect();
    ScanTelemetry::get().record_scan(wall_secs, &shard_secs);
    let shards: Vec<ActionRows> = shards.into_iter().map(|(rows, _)| rows).collect();

    // Per-user action membership (ascending, as actions are visited in
    // order) and 1/A_u.
    let au = log.actions_per_user();
    let inv_au: Vec<f64> = au.iter().map(|&n| one_over_au(n)).collect();
    let (mut ua_offsets, mut cursor) = (vec![0u32], Vec::with_capacity(au.len()));
    let mut total = 0usize;
    for &n in au {
        cursor.push(total);
        total += n as usize;
        // Wraps only past the u32 offset space, which the arena rejects.
        ua_offsets.push(total as u32);
    }
    let mut ua_data = vec![0u32; total];
    for a in log.actions() {
        for &u in log.users_of(a) {
            ua_data[cursor[u as usize]] = a;
            cursor[u as usize] += 1;
        }
    }

    let data = arena(lambda, &ua_offsets, &ua_data, &inv_au, shards, &[], &[])?;
    Ok(CompactSelector { data: Arc::new(data) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactCounts;
    use crate::reference;
    use crate::testing::figure1;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;

    /// `Γ_{v,u}(a)` from the store's canonical entries, or 0 when not
    /// stored.
    pub(super) fn credit(store: &CompactSelector, a: ActionId, v: u32, u: u32) -> f64 {
        store.action(a).entries().find(|&(x, y, _)| (x, y) == (v, u)).map_or(0.0, |(_, _, c)| c)
    }

    #[test]
    fn reproduces_paper_worked_example() {
        let (graph, log) = figure1();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        assert!((credit(&store, 0, 0, 2) - 0.5).abs() < 1e-12, "Γ_v,t");
        assert!((credit(&store, 0, 0, 3) - 1.0).abs() < 1e-12, "Γ_v,w");
        assert!((credit(&store, 0, 0, 4) - 0.5).abs() < 1e-12, "Γ_v,z");
        assert!((credit(&store, 0, 0, 5) - 0.75).abs() < 1e-12, "Γ_v,u = 0.75");
        // And the other influencers of u each hold their direct share.
        assert!((credit(&store, 0, 3, 5) - 0.25).abs() < 1e-12, "Γ_w,u");
        assert!((credit(&store, 0, 4, 5) - 0.25).abs() < 1e-12, "Γ_z,u");
        // t relays credit to z and u: Γ_t,u = γ_t,u + Γ_t,z·γ_z,u.
        assert!((credit(&store, 0, 2, 5) - 0.5).abs() < 1e-12, "Γ_t,u");
    }

    #[test]
    fn initiators_receive_all_flow() {
        let (graph, log) = figure1();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        // Initiators have no in-edges, so no path passes through one:
        // Γ_{Initiators,u} = Σ_{v ∈ Initiators} Γ_{v,u}, and under the
        // uniform policy every unit of credit flows back to initiators.
        let total: f64 = [0u32, 1].iter().map(|&v| credit(&store, 0, v, 5)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total = {total}");
    }

    #[test]
    fn truncation_drops_small_credits() {
        let (graph, log) = figure1();
        let exact = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        let truncated = scan(&graph, &log, &CreditPolicy::Uniform, 0.3).unwrap();
        assert!(truncated.total_entries() < exact.total_entries());
        // γ = 0.25 edges into u are below λ = 0.3 and must be gone.
        assert_eq!(credit(&truncated, 0, 3, 5), 0.0);
        // γ = 0.5 direct credit survives.
        assert!(credit(&truncated, 0, 0, 2) > 0.0);
    }

    #[test]
    fn au_bookkeeping() {
        let (graph, log) = figure1();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        assert_eq!(store.data.ua_row(0), &[0]);
        assert!((store.data.inv_au_of(0) - 1.0).abs() < 1e-12);
        assert_eq!(store.data.inv_au_of(5), 1.0);
    }

    #[test]
    fn empty_log_produces_empty_store() {
        let graph = GraphBuilder::new(3).edges([(0, 1)]).build();
        let log = ActionLogBuilder::new(3).build();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        assert_eq!(store.total_entries(), 0);
        assert_eq!(store.num_actions(), 0);
        assert_eq!(store.data.inv_au_of(0), 0.0);
        // The parallel driver must also accept a zero-action log.
        let store =
            scan_with(&graph, &log, &CreditPolicy::Uniform, 0.0, Parallelism::fixed(4)).unwrap();
        assert_eq!(store.num_actions(), 0);
    }

    #[test]
    fn underflowed_products_are_stored_as_zero() {
        // τ = 1 is learned from unit delays; the scanned action's delays
        // of 390 give γ ≈ 4·10⁻¹⁷⁰ on both edges, so the relayed credit
        // Γ_{0,2} = γ·γ underflows to 0.0. The entry is still stored, as
        // the hash-map kernel stores it.
        let graph = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        let mut b = ActionLogBuilder::new(3);
        for (u, t) in [(0u32, 0.0), (1, 1.0), (2, 2.0)] {
            b.push(u, 0, t);
        }
        let policy = CreditPolicy::time_aware(&graph, &b.build());
        let mut b = ActionLogBuilder::new(3);
        for (u, t) in [(0u32, 0.0), (1, 390.0), (2, 780.0)] {
            b.push(u, 0, t);
        }
        let log = b.build();
        let store = scan(&graph, &log, &policy, 0.0).unwrap();
        let ac = store.action(0);
        assert!(credit(&store, 0, 0, 1) > 0.0 && credit(&store, 0, 1, 2) > 0.0);
        assert_eq!(ac.len(), 3);
        assert_eq!(ac.entries().find(|&(v, u, _)| (v, u) == (0, 2)), Some((0, 2, 0.0)));
        assert!(
            reference::dump_of(&store).store == reference::scan_dump(&graph, &log, &policy, 0.0)
        );
    }

    #[test]
    fn arena_overflow_is_a_typed_error() {
        // The counts check alone, on counts no test could allocate.
        let counts = CompactCounts { entries: u32::MAX as usize, ..CompactCounts::default() };
        let overflow = counts.check_offsets_fit().unwrap_err();
        let err = ScanError::from(overflow);
        assert_eq!(err, ScanError::ArenaOverflow { section: "entries", count: u32::MAX as usize });
        assert!(err.to_string().contains("u32 offset space"));
        assert!(matches!(
            crate::ExtendError::from(overflow),
            crate::ExtendError::ArenaOverflow { section: "entries", .. }
        ));
        let fits = CompactCounts { ua_len: u32::MAX as usize - 1, ..CompactCounts::default() };
        assert!(fits.check_offsets_fit().is_ok());
        let rows = CompactCounts { inc_rows: usize::MAX, ..CompactCounts::default() };
        assert_eq!(rows.check_offsets_fit().unwrap_err().section, "inc_rows");
    }

    #[test]
    fn every_thread_count_writes_the_oracle_dump() {
        let (graph, log) = figure1();
        for lambda in [0.0, 0.3] {
            let oracle = reference::scan_dump(&graph, &log, &CreditPolicy::Uniform, lambda);
            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::fixed(threads);
                let model = scan_with(&graph, &log, &CreditPolicy::Uniform, lambda, par).unwrap();
                let dump = reference::dump_of(&model).store;
                assert!(dump == oracle, "threads = {threads}, lambda = {lambda}");
            }
        }
    }

    #[test]
    fn multiple_actions_are_independent() {
        let graph = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 0.0);
        b.push(1, 0, 1.0);
        b.push(0, 1, 0.0);
        b.push(1, 1, 1.0);
        let log = b.build();
        let store = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
        assert!((credit(&store, 0, 0, 1) - 1.0).abs() < 1e-12);
        assert!((credit(&store, 1, 0, 1) - 1.0).abs() < 1e-12);
        assert!((store.data.inv_au_of(1) - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::credit;
    use super::*;
    use crate::reference;
    use crate::testing::eight_user_instance;
    use cdim_actionlog::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// On random instances, the λ=0 scan must equal the naive DP
        /// evaluation of Eq 5 for every stored (v, u) pair, under both
        /// credit policies.
        #[test]
        fn scan_matches_reference_dp(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..3, 0u64..16), 1..40),
            time_aware in proptest::bool::ANY,
        ) {
            let (graph, log, policy) = eight_user_instance(&edges, &events, time_aware);
            let store = scan(&graph, &log, &policy, 0.0).unwrap();

            for a in log.actions() {
                let expected = reference::pairwise_credit(&graph, &log, &policy, a);
                let ac = store.action(a);
                let mut stored = 0usize;
                for (&(v, u), &c) in &expected {
                    prop_assert!(
                        (credit(&store, a, v, u) - c).abs() < 1e-9,
                        "action {a} credit ({v},{u}): scan {} vs dp {c}",
                        credit(&store, a, v, u)
                    );
                    if c > 0.0 { stored += 1; }
                }
                // No phantom credits beyond the expected support.
                prop_assert!(ac.len() <= stored + expected.len());
            }
        }

        /// Flow conservation under the uniform policy: since every
        /// activation hands out exactly one unit of direct credit and all
        /// relayed credit terminates at initiators (which no path can
        /// cross), each performer's total credit from the initiator set is
        /// exactly 1.
        #[test]
        fn uniform_credit_flow_conserves(
            edges in proptest::collection::vec((0u32..8, 0u32..8), 0..40),
            events in proptest::collection::vec((0u32..8, 0u32..2, 0u64..16), 1..40),
        ) {
            let (graph, log, policy) = eight_user_instance(&edges, &events, false);
            let store = scan(&graph, &log, &policy, 0.0).unwrap();
            let dags = PropagationArena::build(&log, &graph, log.actions());
            for dag in dags.dags() {
                let a = dag.action;
                let initiators = dag.initiators();
                for (i, &u) in dag.users().iter().enumerate() {
                    let incoming: f64 =
                        initiators.iter().map(|&v| credit(&store, a, v, u)).sum();
                    let expected = if dag.in_degree(i) == 0 { 0.0 } else { 1.0 };
                    prop_assert!(
                        (incoming - expected).abs() < 1e-9,
                        "action {a} user {u}: initiator credit {incoming}"
                    );
                }
            }
        }

        /// The dense kernel against the hash-map kernel it replaced, and
        /// the determinism guarantee of the parallel driver: on random
        /// instances with time ties, repeated edges, actions without
        /// credits, both policies (the time-aware one learned on the log
        /// itself or on a copy with compressed delays, so that relayed
        /// products can underflow to 0.0) and λ ∈ {0, 0.001, 0.3}, the
        /// store's canonical dump equals the oracle's bit for bit (exact
        /// f64 equality, entries in canonical order) at every tested
        /// thread count.
        #[test]
        fn scan_is_bitwise_equal_to_the_hash_map_oracle(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..70),
            events in proptest::collection::vec((0u32..10, 0u32..7, 0u64..12), 1..80),
            policy_kind in 0u32..3,
        ) {
            let graph = GraphBuilder::new(10).edges(edges).build();
            let log_at = |scale: f64| {
                let mut b = ActionLogBuilder::new(10);
                for &(u, a, t) in &events {
                    b.push(u, a, t as f64 * scale);
                }
                b.build()
            };
            let log = log_at(1.0);
            let policy = match policy_kind {
                0 => CreditPolicy::Uniform,
                1 => CreditPolicy::time_aware(&graph, &log),
                _ => CreditPolicy::time_aware(&graph, &log_at(1.0 / 400.0)),
            };
            for lambda in [0.0, 0.001, 0.3] {
                let oracle = reference::scan_dump(&graph, &log, &policy, lambda);
                for threads in [1usize, 2, 3, 8] {
                    let par = Parallelism::fixed(threads);
                    let model = scan_with(&graph, &log, &policy, lambda, par).unwrap();
                    let dump = reference::dump_of(&model).store;
                    prop_assert!(
                        dump == oracle,
                        "threads {threads}, lambda {lambda}: dump diverged from the oracle"
                    );
                }
            }
        }

        /// Shard blocks change where the scan keeps its rows, never the
        /// arena: with blocks of 1, 4 and 10 entries the arena equals the
        /// default-block arena byte for byte, and its dump the oracle's,
        /// at every tested thread count. Action 0 is a five-user clique
        /// acting in turn, 10 entries at λ = 0 and always in shard 0, so
        /// blocks of 4 give it one block larger than a block and blocks of
        /// 10 end exactly at its boundary; the random actions after it
        /// straddle blocks wherever they fall.
        #[test]
        fn block_boundaries_leave_the_arena_unchanged(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..70),
            events in proptest::collection::vec((0u32..10, 1u32..7, 0u64..12), 0..80),
            time_aware in proptest::bool::ANY,
        ) {
            let clique = (0..5u32).flat_map(|v| (v + 1..5).map(move |u| (v, u)));
            let graph = GraphBuilder::new(10).edges(edges.into_iter().chain(clique)).build();
            let mut b = ActionLogBuilder::new(10);
            for u in 0..5u32 {
                b.push(u, 0, f64::from(u));
            }
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let policy = if time_aware {
                CreditPolicy::time_aware(&graph, &log)
            } else {
                CreditPolicy::Uniform
            };
            for lambda in [0.0, 0.001, 0.3] {
                let oracle = reference::scan_dump(&graph, &log, &policy, lambda);
                let default = scan_with(&graph, &log, &policy, lambda, Parallelism::single()).unwrap();
                prop_assert!(reference::dump_of(&default).store == oracle);
                if lambda == 0.0 {
                    prop_assert_eq!(default.action(0).len(), 10);
                }
                for block in [1usize, 4, 10] {
                    for threads in [1usize, 2, 3, 8] {
                        let dags = PropagationArena::build(&log, &graph, log.actions());
                        let par = Parallelism::fixed(threads);
                        let model =
                            scan_in_blocks(dags, &policy, lambda, par, (block, block)).unwrap();
                        prop_assert!(
                            model.arena() == default.arena(),
                            "block {block}, threads {threads}, lambda {lambda}: arena differs"
                        );
                        prop_assert!(reference::dump_of(&model).store == oracle);
                    }
                }
            }
        }

        /// λ-truncated credits never exceed the exact ones and the entry
        /// count shrinks monotonically with λ.
        #[test]
        fn truncation_is_conservative(
            events in proptest::collection::vec((0u32..6, 0u32..2, 0u64..12), 1..30),
        ) {
            let graph = GraphBuilder::new(6)
                .edges((0..6u32).flat_map(|u| (0..6u32).map(move |v| (u, v))))
                .build();
            let mut b = ActionLogBuilder::new(6);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let exact = scan(&graph, &log, &CreditPolicy::Uniform, 0.0).unwrap();
            let mut prev_entries = exact.total_entries();
            for lambda in [0.01, 0.1, 0.5] {
                let trunc = scan(&graph, &log, &CreditPolicy::Uniform, lambda).unwrap();
                prop_assert!(trunc.total_entries() <= prev_entries);
                prev_entries = trunc.total_entries();
                for a in log.actions() {
                    for &u in log.users_of(a) {
                        for &v in log.users_of(a) {
                            if v != u {
                                prop_assert!(
                                    credit(&trunc, a, v, u)
                                        <= credit(&exact, a, v, u) + 1e-9
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
