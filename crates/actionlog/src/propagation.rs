//! Per-action propagation graphs G(a), built into one flat arena.
//!
//! "We say that a propagates from node u to v iff u and v are socially
//! linked, and u performs a before v" (§4). The resulting graph is a DAG
//! because edges always point forward in time; ties in time produce *no*
//! edge (the strict inequality of the paper).
//!
//! A [`PropagationArena`] holds the DAGs of a contiguous range of actions
//! in three flat arrays, built once and then only read: per performer an
//! offset, per parent edge the parent's action-local index and the edge's
//! in-aligned position in the social graph (`graph.in_range(u).start + k`
//! for `u`'s `k`-th in-neighbour, so learned per-edge parameters are read
//! without a search). Users and times are borrowed from the log's own
//! slices. The build needs no hash map: a dense per-user slot records the
//! action, time and local index at which the user last performed, so "did
//! in-neighbour `v` perform `a` strictly before `u`" is one array read. A
//! [`PropagationDag`] is a borrowed view of one action of the arena.
//!
//! Parents are listed in `graph.in_neighbors(u)` order, which is
//! ascending user id; every reader (learning, credit policy, scan, spread
//! evaluator) visits them in that order, so the f64 sums they accumulate
//! are reproducible. Training builds one arena over the whole log and
//! every one of those readers borrows it.

use crate::log::{ActionId, ActionLog, Timestamp, UserId};
use cdim_graph::DirectedGraph;
use std::ops::Range;

/// One user's entry in the build's dense performer index: the user
/// performed `action` at `time`, as the performer at local index `local`.
///
/// A slot is written only when its user is visited as a performer, so a
/// slot stamped with action `a` is a fact of the log, and the slots never
/// need clearing between actions: a stale slot of an earlier action fails
/// the stamp test.
#[derive(Clone, Copy, Debug)]
struct Slot {
    action: ActionId,
    local: u32,
    time: Timestamp,
}

impl Slot {
    /// No action id is `u32::MAX`: dense ids index an offsets array.
    const EMPTY: Slot = Slot { action: ActionId::MAX, local: 0, time: 0.0 };
}

/// The propagation DAGs of a contiguous range of a log's actions over a
/// social graph.
///
/// Built once by [`PropagationArena::build`] and read, action by action,
/// through [`PropagationArena::dag`]: training builds one arena over the
/// whole log and hands it to the learner, the credit policy, the scan and
/// the spread evaluator, which also read the log and graph it was built
/// from ([`PropagationArena::log`], [`PropagationArena::graph`]).
#[derive(Debug)]
pub struct PropagationArena<'l> {
    log: &'l ActionLog,
    graph: &'l DirectedGraph,
    actions: Range<ActionId>,
    /// Log tuple index of the range's first performer.
    base: usize,
    /// Performer `p` of the range (log tuple `base + p`) has the parent
    /// edges `parent_offsets[p]..parent_offsets[p + 1]`.
    parent_offsets: Vec<u32>,
    /// Parent edges: the parent's action-local index…
    parents: Vec<u32>,
    /// …and the edge's in-aligned position in the social graph.
    positions: Vec<u32>,
}

impl<'l> PropagationArena<'l> {
    /// Builds G(a) for every action `a` in `actions`.
    ///
    /// # Panics
    /// Panics if `actions` reaches past the log, if a performer is not a
    /// node of `graph`, or if the range holds more than `u32::MAX` parent
    /// edges.
    pub fn build(log: &'l ActionLog, graph: &'l DirectedGraph, actions: Range<ActionId>) -> Self {
        let mut slots = vec![Slot::EMPTY; graph.num_nodes()];
        let base = if actions.is_empty() { 0 } else { log.range(actions.start).start };
        let (mut parent_offsets, mut parents, mut positions) = (vec![0], Vec::new(), Vec::new());
        let in_sources = graph.in_sources();
        for a in actions.clone() {
            let (users, times) = (log.users_of(a), log.times_of(a));
            for (i, (&u, &t)) in users.iter().zip(times).enumerate() {
                // Social in-neighbours of u who performed a strictly
                // earlier, in in-neighbour order.
                let edges = graph.in_range(u);
                for (pos, &v) in edges.clone().zip(&in_sources[edges]) {
                    let seen = slots[v as usize];
                    if seen.action == a && seen.time < t {
                        parents.push(seen.local);
                        positions.push(pos as u32);
                    }
                }
                let end = u32::try_from(parents.len()).expect("parent edges fit u32 offsets");
                parent_offsets.push(end);
                slots[u as usize] = Slot { action: a, local: i as u32, time: t };
            }
        }
        PropagationArena { log, graph, actions, base, parent_offsets, parents, positions }
    }

    /// The log the arena was built from.
    pub fn log(&self) -> &'l ActionLog {
        self.log
    }

    /// The social graph the arena was built over.
    pub fn graph(&self) -> &'l DirectedGraph {
        self.graph
    }

    /// The actions the arena holds.
    pub fn actions(&self) -> Range<ActionId> {
        self.actions.clone()
    }

    /// G(a), for an action `a` the arena was built for.
    ///
    /// # Panics
    /// Panics if the arena does not hold `a`.
    pub fn dag(&self, a: ActionId) -> PropagationDag<'_> {
        assert!(self.actions.contains(&a), "action {a} is outside the arena's {:?}", self.actions);
        let tuples = self.log.range(a);
        let local = tuples.start - self.base..tuples.end - self.base + 1;
        PropagationDag {
            action: a,
            users: self.log.users_of(a),
            times: self.log.times_of(a),
            parent_offsets: &self.parent_offsets[local],
            parents: &self.parents,
            positions: &self.positions,
        }
    }

    /// Every DAG of the arena, in action order.
    pub fn dags(&self) -> impl Iterator<Item = PropagationDag<'_>> + '_ {
        self.actions.clone().map(|a| self.dag(a))
    }
}

/// The propagation DAG of one action: a borrowed view of a
/// [`PropagationArena`].
///
/// Performers are in chronological order; `parents_of(i)` returns *local*
/// indices (all strictly smaller than `i`), so any forward pass over
/// `0..len` is automatically a topological traversal.
#[derive(Clone, Copy, Debug)]
pub struct PropagationDag<'a> {
    /// Dense action id this DAG belongs to.
    pub action: ActionId,
    users: &'a [UserId],
    times: &'a [Timestamp],
    /// `len() + 1` offsets into the arena's `parents`/`positions`.
    parent_offsets: &'a [u32],
    parents: &'a [u32],
    positions: &'a [u32],
}

impl<'a> PropagationDag<'a> {
    /// Number of performers `|V(a)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether nobody performed the action.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The performers in chronological order.
    #[inline]
    pub fn users(&self) -> &'a [UserId] {
        self.users
    }

    /// Timestamps parallel to [`Self::users`].
    #[inline]
    pub fn times(&self) -> &'a [Timestamp] {
        self.times
    }

    /// User at local index `i`.
    #[inline]
    pub fn user(&self, i: usize) -> UserId {
        self.users[i]
    }

    /// Time at local index `i`.
    #[inline]
    pub fn time(&self, i: usize) -> Timestamp {
        self.times[i]
    }

    #[inline]
    fn edges(&self, i: usize) -> Range<usize> {
        self.parent_offsets[i] as usize..self.parent_offsets[i + 1] as usize
    }

    /// Local indices of `i`'s potential influencers `N_in(u, a)`.
    #[inline]
    pub fn parents_of(&self, i: usize) -> &'a [u32] {
        &self.parents[self.edges(i)]
    }

    /// The in-aligned social-graph positions of `i`'s parent edges,
    /// parallel to [`Self::parents_of`]: what
    /// `graph.in_edge_position(parent, user)` returns, without the search.
    #[inline]
    pub fn positions_of(&self, i: usize) -> &'a [u32] {
        &self.positions[self.edges(i)]
    }

    /// `d_in(u, a)`: number of potential influencers of the performer at
    /// local index `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        self.edges(i).len()
    }

    /// User ids of the action's initiators (performers with no potential
    /// influencer).
    pub fn initiators(&self) -> Vec<UserId> {
        (0..self.len()).filter(|&i| self.in_degree(i) == 0).map(|i| self.users[i]).collect()
    }

    /// Total number of propagation edges `|E(a)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        (self.parent_offsets[self.len()] - self.parent_offsets[0]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use cdim_util::FxHashMap;

    /// The hash-map builder the arena replaced, kept as its oracle: per
    /// performer of action `a`, the local indices of its parents in
    /// `in_neighbors` order.
    pub(super) fn hashed_parents(
        log: &ActionLog,
        graph: &DirectedGraph,
        a: ActionId,
    ) -> Vec<Vec<u32>> {
        let (users, times) = (log.users_of(a), log.times_of(a));
        let mut seen: FxHashMap<UserId, u32> = FxHashMap::default();
        let mut parents = Vec::with_capacity(users.len());
        for (i, (&u, &t)) in users.iter().zip(times).enumerate() {
            let mut of_u = Vec::new();
            for &v in graph.in_neighbors(u) {
                if let Some(&j) = seen.get(&v) {
                    if times[j as usize] < t {
                        of_u.push(j);
                    }
                }
            }
            parents.push(of_u);
            seen.insert(u, i as u32);
        }
        parents
    }

    /// Figure-1-like setup: v -> t, v -> u, t -> u, w -> u, z -> u, t -> z.
    /// Users: v=0, t=1, w=2, z=3, u=4.
    fn figure1() -> (DirectedGraph, ActionLog) {
        let graph =
            GraphBuilder::new(5).edges([(0, 1), (0, 4), (1, 4), (2, 4), (3, 4), (1, 3)]).build();
        let mut b = ActionLogBuilder::new(5);
        // Chronology: v, w, t, z, u.
        b.push(0, 0, 1.0);
        b.push(2, 0, 2.0);
        b.push(1, 0, 3.0);
        b.push(3, 0, 4.0);
        b.push(4, 0, 5.0);
        (graph, b.build())
    }

    #[test]
    fn parents_follow_social_links_and_time() {
        let (graph, log) = figure1();
        let arena = PropagationArena::build(&log, &graph, 0..1);
        let dag = arena.dag(0);
        assert_eq!(dag.len(), 5);
        // Local order: v(0), w(1), t(2), z(3), u(4).
        assert_eq!(dag.user(0), 0);
        assert_eq!(dag.parents_of(0), &[] as &[u32]);
        assert_eq!(dag.parents_of(1), &[] as &[u32]); // w has no in-edge from v
        assert_eq!(dag.parents_of(2), &[0]); // t <- v
        assert_eq!(dag.parents_of(3), &[2]); // z <- t

        // u's potential influencers: v, t, w, z (all four), in user order.
        assert_eq!(dag.parents_of(4), &[0, 2, 1, 3]);
        assert_eq!(dag.in_degree(4), 4);
        assert_eq!(dag.num_edges(), 6);
        for i in 0..dag.len() {
            for (&p, &pos) in dag.parents_of(i).iter().zip(dag.positions_of(i)) {
                let e = graph.in_edge_position(dag.user(p as usize), dag.user(i));
                assert_eq!(Some(pos as usize), e);
            }
        }
    }

    #[test]
    fn initiators_have_no_parents() {
        let (graph, log) = figure1();
        let arena = PropagationArena::build(&log, &graph, 0..1);
        assert_eq!(arena.dag(0).initiators(), vec![0, 2]); // v and w
    }

    #[test]
    fn simultaneous_actions_do_not_propagate() {
        let graph = GraphBuilder::new(2).edges([(0, 1), (1, 0)]).build();
        let mut b = ActionLogBuilder::new(2);
        b.push(0, 0, 1.0);
        b.push(1, 0, 1.0);
        let log = b.build();
        let arena = PropagationArena::build(&log, &graph, 0..1);
        let dag = arena.dag(0);
        assert_eq!(dag.num_edges(), 0);
        assert_eq!(dag.initiators().len(), 2);
    }

    #[test]
    fn non_friends_do_not_propagate() {
        let graph = GraphBuilder::new(3).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(3);
        b.push(2, 0, 1.0); // stranger first
        b.push(1, 0, 2.0);
        let log = b.build();
        let arena = PropagationArena::build(&log, &graph, 0..1);
        assert_eq!(arena.dag(0).num_edges(), 0);
    }

    #[test]
    fn edges_always_point_forward_in_time() {
        let (graph, log) = figure1();
        let arena = PropagationArena::build(&log, &graph, 0..1);
        let dag = arena.dag(0);
        for i in 0..dag.len() {
            for &p in dag.parents_of(i) {
                assert!((p as usize) < i);
                assert!(dag.time(p as usize) < dag.time(i));
            }
        }
    }

    #[test]
    fn an_arena_holds_exactly_its_range() {
        let graph = GraphBuilder::new(2).edges([(0, 1)]).build();
        let mut b = ActionLogBuilder::new(2);
        for a in 0..3 {
            b.push(0, a, 0.0);
            b.push(1, a, 1.0);
        }
        let log = b.build();
        let arena = PropagationArena::build(&log, &graph, 1..3);
        assert_eq!(arena.dags().map(|dag| dag.action).collect::<Vec<_>>(), vec![1, 2]);
        assert!(arena.dags().all(|dag| dag.parents_of(1) == [0]));
        assert_eq!(arena.actions(), 1..3);
        assert!(std::ptr::eq(arena.log(), &log) && std::ptr::eq(arena.graph(), &graph));
        assert!(std::panic::catch_unwind(|| arena.dag(0).len()).is_err());
        assert_eq!(PropagationArena::build(&log, &graph, 0..0).dags().count(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::hashed_parents;
    use super::*;
    use crate::log::ActionLogBuilder;
    use cdim_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        /// For random graphs and logs: an edge (v, u) exists in G(a) iff
        /// (v, u) ∈ E and t(v, a) < t(u, a) — the paper's definition —
        /// and the result is acyclic by local-index ordering.
        #[test]
        fn dag_matches_definition(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..60),
            events in proptest::collection::vec((0u32..10, 0u64..20), 1..40),
        ) {
            let graph = GraphBuilder::new(10).edges(edges).build();
            let mut b = ActionLogBuilder::new(10);
            for &(u, t) in &events {
                b.push(u, 0, t as f64);
            }
            let log = b.build();
            let arena = PropagationArena::build(&log, &graph, 0..1);
            let dag = arena.dag(0);

            // Oracle edge set.
            let mut expected = std::collections::BTreeSet::new();
            for i in 0..dag.len() {
                for j in 0..dag.len() {
                    let (v, u) = (dag.user(j), dag.user(i));
                    if graph.has_edge(v, u) && dag.time(j) < dag.time(i) {
                        expected.insert((j as u32, i));
                    }
                }
            }
            let mut actual = std::collections::BTreeSet::new();
            for i in 0..dag.len() {
                for &p in dag.parents_of(i) {
                    prop_assert!((p as usize) < i, "acyclicity violated");
                    actual.insert((p, i));
                }
            }
            prop_assert_eq!(actual, expected);
        }

        /// The arena against the hash-map builder it replaced: on random
        /// graphs and multi-action logs with tied timestamps and users who
        /// act once or never, every action's parent lists hold the same
        /// local indices in the same order, and every stored position is
        /// `graph.in_edge_position(v, u)`. This holds for a whole-log
        /// build and for one-action builds, whose ranges mostly start past
        /// action 0.
        #[test]
        fn arena_matches_the_hash_map_builder(
            edges in proptest::collection::vec((0u32..14, 0u32..14), 0..90),
            events in proptest::collection::vec((0u32..12, 0u32..6, 0u64..6), 0..70),
        ) {
            let graph = GraphBuilder::new(14).edges(edges).build();
            let mut b = ActionLogBuilder::new(14);
            for &(u, a, t) in &events {
                b.push(u, a, t as f64);
            }
            let log = b.build();
            let check = |dag: PropagationDag<'_>| {
                let oracle = hashed_parents(&log, &graph, dag.action);
                prop_assert_eq!(dag.len(), oracle.len());
                for (i, expected) in oracle.iter().enumerate() {
                    prop_assert_eq!(dag.parents_of(i), &expected[..]);
                    for (&p, &pos) in dag.parents_of(i).iter().zip(dag.positions_of(i)) {
                        let e = graph.in_edge_position(dag.user(p as usize), dag.user(i));
                        prop_assert_eq!(Some(pos as usize), e);
                    }
                }
            };
            let n = log.num_actions() as ActionId;
            let whole = PropagationArena::build(&log, &graph, 0..n);
            prop_assert_eq!(whole.dags().count(), n as usize);
            whole.dags().for_each(check);
            for a in 0..n {
                check(PropagationArena::build(&log, &graph, a..a + 1).dag(a));
            }
        }
    }
}
