//! The concurrent influence-query engine.
//!
//! An [`InfluenceService`] owns an immutable [`ModelSnapshot`] behind an
//! `Arc` and answers three query shapes from any number of threads:
//!
//! * **top-k seeds** — CELF (Algorithm 3) over the snapshot store;
//! * **spread** — σ_cd(S) for an arbitrary seed set, computed by
//!   telescoping Theorem-3 marginal gains over the canonicalized set;
//! * **marginal gain** — σ_cd(S + x) − σ_cd(S) for a candidate `x`.
//!
//! Answers for hot keys are cached in an
//! [`cdim_util::LruCache`] keyed on *canonicalized* seed sets
//! (sorted, deduplicated), so `{3, 1}` and `{1, 3, 3}` share one entry and
//! one floating-point evaluation order. A retrain is published with
//! [`InfluenceService::publish`]: the `Arc` snapshot is swapped under a
//! brief write lock and the cache is invalidated, while in-flight queries
//! keep the old snapshot alive until they finish — zero downtime.

use crate::snapshot::ModelSnapshot;
use cdim_obs::{Counter, Gauge, Histogram, MetricsRegistry, Stage, TraceCtx, Tracer};
use cdim_util::{LruCache, Timer};
use std::sync::{Arc, Mutex, RwLock};

/// A query against the current snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// The `budget` best seeds by CELF, with their marginal gains.
    TopKSeeds {
        /// Number of seeds to select.
        budget: u32,
    },
    /// Predicted spread σ_cd of an arbitrary seed set.
    Spread {
        /// The seed set (any order, duplicates tolerated).
        seeds: Vec<u32>,
    },
    /// Marginal gain of adding `candidate` to `seeds`.
    MarginalGain {
        /// The existing seed set.
        seeds: Vec<u32>,
        /// The candidate user.
        candidate: u32,
    },
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Seeds in selection order with their telescoping marginal gains.
    TopKSeeds {
        /// Chosen seeds, best first.
        seeds: Vec<u32>,
        /// Marginal gain of each seed at its selection step.
        gains: Vec<f64>,
    },
    /// σ_cd of the queried set.
    Spread(f64),
    /// The queried marginal gain.
    MarginalGain(f64),
}

/// Why a query was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A user id exceeds the snapshot's user universe.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// Users in the snapshot.
        num_users: usize,
    },
    /// The marginal-gain candidate is already in the queried seed set.
    CandidateInSeedSet(u32),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UserOutOfRange { user, num_users } => {
                write!(f, "user {user} out of range (snapshot has {num_users} users)")
            }
            QueryError::CandidateInSeedSet(x) => {
                write!(f, "candidate {x} is already in the seed set")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Cache key: the query with its seed set in canonical form.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CacheKey {
    TopK(u32),
    Spread(Vec<u32>),
    Gain(Vec<u32>, u32),
}

/// Counters exposed for monitoring and tests.
///
/// A long-running follower + server pair is monitored through these (via
/// the wire `Stats` op and `cdim stats`): `queries` says whether traffic
/// is arriving, the hit/miss split says whether the cache is earning its
/// memory, and `snapshots_published` / `model_version` say whether the
/// online-retraining loop is actually refreshing the served model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries received by [`InfluenceService::query_batch`] (including
    /// ones rejected with a [`QueryError`]).
    pub queries: u64,
    /// Queries answered from the LRU cache.
    pub cache_hits: u64,
    /// Queries that had to be computed.
    pub cache_misses: u64,
    /// Snapshots published over the service's lifetime (the initial one
    /// counts as zero).
    pub snapshots_published: u64,
    /// Version of the currently served model: starts at 0 and increments
    /// on every publish (equals `snapshots_published` unless stats are
    /// read mid-publish).
    pub model_version: u64,
}

/// The service's handles into its [`MetricsRegistry`]: resolved once at
/// construction so the hot path never pays a name lookup.
struct ServeMetrics {
    queries: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    published: Arc<Counter>,
    inflight: Arc<Gauge>,
    query_seconds: Arc<Histogram>,
    publish_seconds: Arc<Histogram>,
    retract_seconds: Arc<Histogram>,
    swap_seconds: Arc<Histogram>,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            queries: registry.counter("cdim_serve_queries_total"),
            hits: registry.counter("cdim_serve_cache_hits_total"),
            misses: registry.counter("cdim_serve_cache_misses_total"),
            published: registry.counter("cdim_serve_publishes_total"),
            inflight: registry.gauge("cdim_serve_inflight_queries"),
            query_seconds: registry.histogram("cdim_serve_query_seconds"),
            publish_seconds: registry.histogram("cdim_serve_publish_seconds"),
            retract_seconds: registry.histogram("cdim_serve_retract_seconds"),
            swap_seconds: registry.histogram("cdim_serve_swap_seconds"),
        }
    }
}

/// The service's interned trace stages, resolved once at construction
/// (the flight-recorder analogue of [`ServeMetrics`]). Spans record into
/// the process-wide [`Tracer`] so one op-7 dump shows the whole request
/// path across reactor, service and scan.
struct ServeTrace {
    tracer: Arc<Tracer>,
    snapshot: Stage,
    probe: Stage,
    compute: Stage,
    dedup: Stage,
    publish: Stage,
    publish_delta: Stage,
    retract_delta: Stage,
    extend: Stage,
    retract: Stage,
    swap: Stage,
    k_queries: Stage,
    k_hits: Stage,
}

impl ServeTrace {
    fn register(tracer: Arc<Tracer>) -> Self {
        ServeTrace {
            snapshot: tracer.stage("service.snapshot"),
            probe: tracer.stage("service.cache_probe"),
            compute: tracer.stage("service.compute"),
            dedup: tracer.stage("service.dedup"),
            publish: tracer.stage("service.publish"),
            publish_delta: tracer.stage("service.publish_delta"),
            retract_delta: tracer.stage("service.retract_delta"),
            extend: tracer.stage("service.extend"),
            retract: tracer.stage("service.retract"),
            swap: tracer.stage("service.swap"),
            k_queries: tracer.stage("queries"),
            k_hits: tracer.stage("hits"),
            tracer,
        }
    }
}

/// Thread-safe influence-query service over an immutable model snapshot.
pub struct InfluenceService {
    /// The served model plus its publish epoch. Reading them as a pair is
    /// what lets a finished computation prove its answer is not stale
    /// before caching it.
    snapshot: RwLock<(u64, Arc<ModelSnapshot>)>,
    cache: Mutex<LruCache<CacheKey, Answer>>,
    /// The registry this service reports into; [`ServiceStats`] reads the
    /// same counters back, so there is exactly one source of truth.
    registry: Arc<MetricsRegistry>,
    metrics: ServeMetrics,
    trace: ServeTrace,
}

impl InfluenceService {
    /// Wraps `snapshot` with an answer cache of `cache_capacity` entries
    /// (0 disables caching). The service gets a private
    /// [`MetricsRegistry`]; use [`Self::with_registry`] to share one.
    pub fn new(snapshot: ModelSnapshot, cache_capacity: usize) -> Self {
        Self::with_registry(snapshot, cache_capacity, Arc::new(MetricsRegistry::new()))
    }

    /// Like [`Self::new`], but reporting into `registry` — pass
    /// [`MetricsRegistry::global`] to surface the service's series on the
    /// process-wide scrape endpoint and wire op 6.
    pub fn with_registry(
        snapshot: ModelSnapshot,
        cache_capacity: usize,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        let metrics = ServeMetrics::register(&registry);
        InfluenceService {
            snapshot: RwLock::new((0, Arc::new(snapshot))),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            registry,
            metrics,
            trace: ServeTrace::register(Tracer::global()),
        }
    }

    /// The registry this service reports into (the one wire op 6 dumps).
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The currently-served snapshot. The returned `Arc` stays valid (and
    /// the old model stays alive) across concurrent [`publish`] calls.
    ///
    /// [`publish`]: Self::publish
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned").1)
    }

    /// The served snapshot together with its publish epoch.
    fn snapshot_with_epoch(&self) -> (u64, Arc<ModelSnapshot>) {
        let guard = self.snapshot.read().expect("snapshot lock poisoned");
        (guard.0, Arc::clone(&guard.1))
    }

    /// Current publish epoch.
    fn epoch(&self) -> u64 {
        self.snapshot.read().expect("snapshot lock poisoned").0
    }

    /// Atomically replaces the served snapshot and invalidates the answer
    /// cache. Queries already in flight finish against the old snapshot;
    /// new queries see the new one. No query is ever blocked for longer
    /// than the pointer swap + cache clear.
    pub fn publish(&self, snapshot: ModelSnapshot) {
        let tracer = &self.trace.tracer;
        let root = tracer.open(tracer.begin_trace(), self.trace.publish);
        self.publish_traced(snapshot, root.ctx());
        tracer.close(root);
    }

    /// The swap itself, recorded under `ctx` so a delta/retract publish
    /// shows up as one trace rather than nested roots.
    fn publish_traced(&self, snapshot: ModelSnapshot, ctx: TraceCtx) {
        let next = Arc::new(snapshot);
        // Bump the epoch together with the swap, *then* clear. A query
        // that computed against the old snapshot either sees the bumped
        // epoch and skips its cache insert, or inserted before the bump —
        // in which case the clear below removes the entry. Either way no
        // old-model answer survives the publish.
        let timer = Timer::start();
        let swap_span = self.trace.tracer.open(ctx, self.trace.swap);
        {
            let mut slot = self.snapshot.write().expect("snapshot lock poisoned");
            *slot = (slot.0 + 1, next);
        }
        self.cache.lock().expect("cache lock poisoned").clear();
        self.trace.tracer.close(swap_span);
        self.metrics.swap_seconds.observe(timer.secs());
        self.metrics.published.inc();
    }

    /// Incremental hot-swap: extends the *currently served* snapshot with
    /// an append-only action batch and publishes the result — a retrain
    /// refresh priced at the delta, not the full log. Queries in flight
    /// keep the old snapshot; once this returns, new queries see the
    /// extended one. No query ever observes a half-updated model (the
    /// swap is a single `Arc` replacement under the write lock).
    ///
    /// Concurrent `publish_delta`/`publish` calls are each atomic, but a
    /// pair racing each other resolves to whichever swaps last — drive
    /// refreshes from one place (the paper's pipeline is a single
    /// training loop feeding many query threads).
    pub fn publish_delta(
        &self,
        graph: &cdim_graph::DirectedGraph,
        delta: &cdim_actionlog::ActionLogDelta,
        policy: &cdim_core::CreditPolicy,
        parallelism: cdim_util::Parallelism,
    ) -> Result<(), cdim_core::ExtendError> {
        let _span = self.metrics.publish_seconds.start_span();
        let tracer = &self.trace.tracer;
        let root = tracer.open(tracer.begin_trace(), self.trace.publish_delta);
        let extend_span = tracer.open(root.ctx(), self.trace.extend);
        // An error abandons the open spans: failed publishes are not
        // recorded (an unclosed ActiveSpan is plain data, nothing leaks).
        let next = self.snapshot().extend(graph, delta, policy, parallelism)?;
        tracer.close(extend_span);
        self.publish_traced(next, root.ctx());
        tracer.close(root);
        Ok(())
    }

    /// Sliding-window hot-swap: retracts an expired action prefix from
    /// the *currently served* snapshot and publishes the result — the
    /// expiry side of a bounded-memory live model. The swap is the same
    /// single `Arc` replacement as [`publish`](Self::publish): queries in
    /// flight keep the old snapshot, the cache is invalidated with the
    /// epoch bump, and no query ever observes a half-retracted model.
    ///
    /// The same single-writer discipline as
    /// [`publish_delta`](Self::publish_delta) applies.
    pub fn retract_delta(
        &self,
        graph: &cdim_graph::DirectedGraph,
        expired: &cdim_actionlog::ActionLogDelta,
        policy: &cdim_core::CreditPolicy,
        parallelism: cdim_util::Parallelism,
    ) -> Result<(), cdim_core::ExtendError> {
        let _span = self.metrics.retract_seconds.start_span();
        let tracer = &self.trace.tracer;
        let root = tracer.open(tracer.begin_trace(), self.trace.retract_delta);
        let retract_span = tracer.open(root.ctx(), self.trace.retract);
        let next = self.snapshot().retract(graph, expired, policy, parallelism)?;
        tracer.close(retract_span);
        self.publish_traced(next, root.ctx());
        tracer.close(root);
        Ok(())
    }

    /// Version of the currently served model: 0 for the snapshot the
    /// service started with, +1 per publish.
    pub fn model_version(&self) -> u64 {
        self.epoch()
    }

    /// Query, cache and publish counters, read back from the service's
    /// [`MetricsRegistry`] — the registry IS the source of truth.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.metrics.queries.get(),
            cache_hits: self.metrics.hits.get(),
            cache_misses: self.metrics.misses.get(),
            snapshots_published: self.metrics.published.get(),
            model_version: self.epoch(),
        }
    }

    /// Answers one query, consulting the LRU cache first: a batch of one
    /// through [`Self::query_batch`], so both share one accounting path.
    pub fn query(&self, query: &Query) -> Result<Answer, QueryError> {
        self.query_batch(std::slice::from_ref(query)).pop().expect("one answer per query")
    }

    /// Answers a batch of queries against **one** consistent snapshot.
    ///
    /// This is the reactor's amortized path: every query decoded in one
    /// event-loop tick lands here, so the whole batch pays a single
    /// snapshot-lock acquisition, a single cache-lock probe pass, and a
    /// single epoch-checked insert pass — and a concurrent
    /// [`publish`](Self::publish) can never interleave *between* queries
    /// of the batch (they all see the same epoch).
    ///
    /// Metrics are recorded per query: `queries_total` and the latency
    /// histogram advance once per element, and every element counts as either a hit or a miss
    /// (duplicates within the batch are hits — the first occurrence's
    /// computation serves the rest from memory).
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Result<Answer, QueryError>> {
        self.query_batch_traced(queries, &[])
    }

    /// [`Self::query_batch`] with per-query trace contexts: `ctxs[i]` is
    /// the request trace query `i` belongs to (the reactor's per-request
    /// roots), so batch-wide work — snapshot acquisition, the cache-probe
    /// pass — is recorded once under the first sampled context, while
    /// per-query work (compute, in-batch dedup) lands under its own
    /// request. Pass an empty slice to trace nothing (`query_batch`
    /// delegates that way). Tracing never changes the metrics accounting.
    pub fn query_batch_traced(
        &self,
        queries: &[Query],
        ctxs: &[TraceCtx],
    ) -> Vec<Result<Answer, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let tracer = &self.trace.tracer;
        let ctx_of = |i: usize| ctxs.get(i).copied().unwrap_or_else(TraceCtx::unsampled);
        let batch_ctx =
            ctxs.iter().copied().find(TraceCtx::is_sampled).unwrap_or_else(TraceCtx::unsampled);
        self.metrics.queries.add(queries.len() as u64);
        self.metrics.inflight.add(queries.len() as f64);
        let timer = Timer::start();
        let snapshot_span = tracer.open(batch_ctx, self.trace.snapshot);
        let (epoch, snapshot) = self.snapshot_with_epoch();
        tracer.close(snapshot_span);

        let keys: Vec<Result<CacheKey, QueryError>> =
            queries.iter().map(|q| canonical_key(q, &snapshot)).collect();

        // One probe pass under one cache-lock hold.
        let mut probe_span = tracer.open(batch_ctx, self.trace.probe);
        let mut results: Vec<Option<Result<Answer, QueryError>>> = vec![None; queries.len()];
        let mut probe_hits = 0u64;
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (slot, key) in results.iter_mut().zip(&keys) {
                match key {
                    Err(e) => *slot = Some(Err(e.clone())),
                    Ok(k) => {
                        if let Some(answer) = cache.get(k) {
                            self.metrics.hits.inc();
                            probe_hits += 1;
                            *slot = Some(Ok(answer.clone()));
                        }
                    }
                }
            }
        }
        probe_span.kv(self.trace.k_queries, queries.len() as u64);
        probe_span.kv(self.trace.k_hits, probe_hits);
        tracer.close(probe_span);
        let probe_secs = timer.secs();
        let resolved = results.iter().filter(|s| s.is_some()).count();
        for _ in 0..resolved {
            self.metrics.query_seconds.observe(probe_secs);
        }

        // Compute the misses; duplicates within the batch compute once.
        let mut computed: Vec<(CacheKey, Answer)> = Vec::new();
        for (i, (slot, key)) in results.iter_mut().zip(&keys).enumerate() {
            if slot.is_some() {
                continue;
            }
            let key = key.as_ref().expect("errors were resolved in the probe pass");
            let answer = match computed.iter().find(|(k, _)| k == key) {
                Some((_, answer)) => {
                    let dedup_span = tracer.open(ctx_of(i), self.trace.dedup);
                    self.metrics.hits.inc();
                    let answer = answer.clone();
                    tracer.close(dedup_span);
                    answer
                }
                None => {
                    let compute_span = tracer.open(ctx_of(i), self.trace.compute);
                    let answer = compute(key, &snapshot);
                    tracer.close(compute_span);
                    self.metrics.misses.inc();
                    computed.push((key.clone(), answer.clone()));
                    answer
                }
            };
            self.metrics.query_seconds.observe(timer.secs());
            *slot = Some(Ok(answer));
        }

        // One epoch-checked insert pass: cache only when no publish raced
        // the computation (checked while holding the cache lock, so a
        // concurrent publish's clear either runs after this insert or is
        // ordered after our epoch check).
        if !computed.is_empty() {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            if self.epoch() == epoch {
                for (key, answer) in computed {
                    cache.insert(key, answer);
                }
            }
        }

        self.metrics.inflight.add(-(queries.len() as f64));
        results.into_iter().map(|slot| slot.expect("every slot was filled")).collect()
    }
}

/// Validates the query against the snapshot and canonicalizes it so
/// equivalent queries share a cache entry and a summation order: seed
/// sets sorted and deduplicated, top-k budgets clamped to the user count
/// (no model has more seeds to give).
fn canonical_key(query: &Query, snapshot: &ModelSnapshot) -> Result<CacheKey, QueryError> {
    let num_users = snapshot.num_users();
    let check = |user: u32| {
        if user as usize >= num_users {
            Err(QueryError::UserOutOfRange { user, num_users })
        } else {
            Ok(())
        }
    };
    match query {
        Query::TopKSeeds { budget } => Ok(CacheKey::TopK((*budget).min(num_users as u32))),
        Query::Spread { seeds } => {
            for &s in seeds {
                check(s)?;
            }
            Ok(CacheKey::Spread(canonicalize(seeds)))
        }
        Query::MarginalGain { seeds, candidate } => {
            for &s in seeds {
                check(s)?;
            }
            check(*candidate)?;
            let canonical = canonicalize(seeds);
            if canonical.binary_search(candidate).is_ok() {
                return Err(QueryError::CandidateInSeedSet(*candidate));
            }
            Ok(CacheKey::Gain(canonical, *candidate))
        }
    }
}

fn canonicalize(seeds: &[u32]) -> Vec<u32> {
    let mut out = seeds.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

fn compute(key: &CacheKey, snapshot: &ModelSnapshot) -> Answer {
    match key {
        CacheKey::TopK(budget) => {
            let selection = snapshot.top_k(*budget as usize);
            Answer::TopKSeeds { seeds: selection.seeds, gains: selection.marginal_gains }
        }
        CacheKey::Spread(seeds) => Answer::Spread(snapshot.telescoped_spread(seeds)),
        CacheKey::Gain(seeds, candidate) => {
            Answer::MarginalGain(snapshot.gain_over(seeds, *candidate))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_core::reference::CdSelector;
    use cdim_core::{scan, CompactSelector, CreditPolicy};

    fn store() -> CompactSelector {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        scan(&ds.graph, &ds.log, &policy, 0.001).unwrap()
    }

    fn service(cache: usize) -> InfluenceService {
        InfluenceService::new(ModelSnapshot::from_store(store()), cache)
    }

    #[test]
    fn topk_matches_offline_selector() {
        let svc = service(16);
        let offline = store().overlay().select(5);
        match svc.query(&Query::TopKSeeds { budget: 5 }).unwrap() {
            Answer::TopKSeeds { seeds, gains } => {
                assert_eq!(seeds, offline.seeds);
                assert_eq!(gains, offline.marginal_gains);
                // Every gain is a Theorem-3 evaluation, which the hash-map
                // oracle repeats bit for bit.
                let mut oracle = CdSelector::new(store());
                for (&s, &g) in seeds.iter().zip(&gains) {
                    assert_eq!(g.to_bits(), oracle.compute_mg(s).to_bits(), "seed {s}");
                    oracle.update(s);
                }
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }

    #[test]
    fn spread_telescopes_marginal_gains() {
        let svc = service(16);
        let Answer::TopKSeeds { seeds, gains } =
            svc.query(&Query::TopKSeeds { budget: 3 }).unwrap()
        else {
            unreachable!()
        };
        let Answer::Spread(sigma) = svc.query(&Query::Spread { seeds: seeds.clone() }).unwrap()
        else {
            unreachable!()
        };
        // The service telescopes in canonical (sorted) seed order; CELF
        // telescoped in selection order. On a λ-truncated store the
        // Lemma-2 update algebra is only order-independent up to the
        // truncation error, so the totals agree approximately…
        assert!((sigma - gains.iter().sum::<f64>()).abs() < 1e-3 * sigma.abs());
        // …and exactly against an offline walk in the same canonical order.
        let mut canonical = seeds;
        canonical.sort_unstable();
        let mut offline = CdSelector::new(store());
        let mut expected = 0.0;
        for &s in &canonical {
            expected += offline.compute_mg(s);
            offline.update(s);
        }
        assert_eq!(sigma.to_bits(), expected.to_bits());
    }

    #[test]
    fn marginal_gain_is_spread_difference() {
        let svc = service(16);
        let s = vec![0u32, 1];
        let Answer::Spread(base) = svc.query(&Query::Spread { seeds: s.clone() }).unwrap() else {
            unreachable!()
        };
        for candidate in 2..svc.snapshot().num_users() as u32 {
            let Answer::MarginalGain(mg) =
                svc.query(&Query::MarginalGain { seeds: s.clone(), candidate }).unwrap()
            else {
                unreachable!()
            };
            let mut with = s.clone();
            with.push(candidate);
            let Answer::Spread(bigger) = svc.query(&Query::Spread { seeds: with }).unwrap() else {
                unreachable!()
            };
            assert!(
                (base + mg - bigger).abs() < 1e-9,
                "candidate {candidate}: {base} + {mg} vs {bigger}"
            );
        }
    }

    #[test]
    fn cache_hit_path_returns_identical_answer() {
        let svc = service(16);
        let q = Query::Spread { seeds: vec![3, 1, 2] };
        let first = svc.query(&q).unwrap();
        assert_eq!(
            svc.stats(),
            ServiceStats { queries: 1, cache_hits: 0, cache_misses: 1, ..Default::default() }
        );
        let second = svc.query(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(svc.stats().cache_hits, 1);
        // Permuted and duplicated seed lists hit the same canonical entry.
        let third = svc.query(&Query::Spread { seeds: vec![2, 3, 1, 1] }).unwrap();
        assert_eq!(first, third);
        assert_eq!(
            svc.stats(),
            ServiceStats { queries: 3, cache_hits: 2, cache_misses: 1, ..Default::default() }
        );
    }

    #[test]
    fn stats_track_queries_and_model_version() {
        let svc = service(16);
        assert_eq!(svc.model_version(), 0);
        svc.query(&Query::Spread { seeds: vec![0] }).unwrap();
        // Rejected queries still count as received.
        let n = svc.snapshot().num_users() as u32;
        assert!(svc.query(&Query::Spread { seeds: vec![n] }).is_err());
        assert_eq!(svc.stats().queries, 2);
        assert_eq!(svc.stats().cache_misses, 1);

        let ds = cdim_datagen::presets::tiny().generate();
        let store = scan(&ds.graph, &ds.log, &CreditPolicy::Uniform, 0.0).unwrap();
        svc.publish(ModelSnapshot::from_store(store));
        assert_eq!(svc.model_version(), 1);
        assert_eq!(svc.stats().model_version, 1);
        assert_eq!(svc.stats().snapshots_published, 1);
    }

    #[test]
    fn zero_capacity_cache_still_answers() {
        let svc = service(0);
        let q = Query::Spread { seeds: vec![0] };
        let a = svc.query(&q).unwrap();
        let b = svc.query(&q).unwrap();
        assert_eq!(a, b);
        assert_eq!(svc.stats().cache_hits, 0);
        assert_eq!(svc.stats().cache_misses, 2);
    }

    #[test]
    fn rejects_out_of_range_and_duplicate_candidate() {
        let svc = service(4);
        let n = svc.snapshot().num_users() as u32;
        assert_eq!(
            svc.query(&Query::Spread { seeds: vec![n] }),
            Err(QueryError::UserOutOfRange { user: n, num_users: n as usize })
        );
        assert_eq!(
            svc.query(&Query::MarginalGain { seeds: vec![1, 2], candidate: 2 }),
            Err(QueryError::CandidateInSeedSet(2))
        );
    }

    #[test]
    fn publish_swaps_snapshot_and_clears_cache() {
        let svc = service(16);
        let q = Query::TopKSeeds { budget: 2 };
        let before = svc.query(&q).unwrap();
        svc.query(&q).unwrap();
        assert_eq!(svc.stats().cache_hits, 1);

        // Retrain on a different dataset and hot-swap.
        let ds = cdim_datagen::presets::tiny().generate();
        let store = scan(&ds.graph, &ds.log, &CreditPolicy::Uniform, 0.0).unwrap();
        svc.publish(ModelSnapshot::from_store(store));
        assert_eq!(svc.stats().snapshots_published, 1);

        // The cache was invalidated: the next query recomputes.
        let misses_before = svc.stats().cache_misses;
        let after = svc.query(&q).unwrap();
        assert_eq!(svc.stats().cache_misses, misses_before + 1);
        // Same dataset, different policy — answers may differ, but both are
        // well-formed 2-seed selections.
        let (Answer::TopKSeeds { seeds: a, .. }, Answer::TopKSeeds { seeds: b, .. }) =
            (before, after)
        else {
            unreachable!()
        };
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn retract_delta_hot_swaps_to_the_window_model() {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::Uniform;
        let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
        let svc = InfluenceService::new(ModelSnapshot::from_store(store), 16);
        let q = Query::TopKSeeds { budget: 2 };
        svc.query(&q).unwrap();
        svc.query(&q).unwrap();
        assert_eq!(svc.stats().cache_hits, 1);

        // Expire the first third of the log through the service.
        let expire = ds.log.num_actions() / 3;
        let (expired, window) = ds.log.split_off_prefix(expire);
        svc.retract_delta(&ds.graph, &expired, &policy, cdim_util::Parallelism::fixed(2)).unwrap();
        assert_eq!(svc.model_version(), 1);

        // The served model IS the window-only model, byte for byte…
        let fresh = scan(&ds.graph, &window, &policy, 0.001).unwrap();
        assert_eq!(svc.snapshot().to_bytes(), ModelSnapshot::from_store(fresh).to_bytes());
        // …and the cache was invalidated with the swap.
        let misses_before = svc.stats().cache_misses;
        svc.query(&q).unwrap();
        assert_eq!(svc.stats().cache_misses, misses_before + 1);

        // A non-prefix batch is refused and publishes nothing.
        let stale = ds.log.delta_range(1, 2);
        assert!(svc
            .retract_delta(&ds.graph, &stale, &policy, cdim_util::Parallelism::auto())
            .is_err());
        assert_eq!(svc.model_version(), 1);
    }

    #[test]
    fn stats_and_registry_agree_on_one_source_of_truth() {
        let ds = cdim_datagen::presets::tiny().generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
        let registry = std::sync::Arc::new(cdim_obs::MetricsRegistry::new());
        let svc = InfluenceService::with_registry(
            ModelSnapshot::from_store(store),
            16,
            std::sync::Arc::clone(&registry),
        );

        let q = Query::Spread { seeds: vec![0, 1] };
        svc.query(&q).unwrap();
        svc.query(&q).unwrap();
        let stats = svc.stats();
        // ServiceStats is a read of the registry, not a parallel count.
        assert_eq!(registry.counter("cdim_serve_queries_total").get(), stats.queries);
        assert_eq!(registry.counter("cdim_serve_cache_hits_total").get(), stats.cache_hits);
        assert_eq!(registry.counter("cdim_serve_cache_misses_total").get(), stats.cache_misses);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);

        // Latency histograms saw every query; the in-flight gauge is back
        // to zero once the queries returned.
        assert_eq!(registry.histogram("cdim_serve_query_seconds").count(), 2);
        assert_eq!(registry.gauge("cdim_serve_inflight_queries").get(), 0.0);

        // A publish lands in both the counter and the swap histogram.
        let store = scan(&ds.graph, &ds.log, &CreditPolicy::Uniform, 0.0).unwrap();
        svc.publish(ModelSnapshot::from_store(store));
        assert_eq!(registry.counter("cdim_serve_publishes_total").get(), 1);
        assert_eq!(registry.histogram("cdim_serve_swap_seconds").count(), 1);
    }

    #[test]
    fn batch_matches_sequential_queries_and_counts_every_element() {
        let mixed = vec![
            Query::TopKSeeds { budget: 3 },
            Query::Spread { seeds: vec![0, 1] },
            Query::Spread { seeds: vec![1, 0, 0] }, // duplicate (canonical)
            Query::MarginalGain { seeds: vec![0], candidate: 2 },
            Query::Spread { seeds: vec![u32::MAX] }, // rejected
            Query::TopKSeeds { budget: 3 },          // duplicate
        ];

        let sequential = service(64);
        let expected: Vec<_> = mixed.iter().map(|q| sequential.query(q)).collect();

        let batched = service(64);
        let got = batched.query_batch(&mixed);
        assert_eq!(got, expected);

        // Per-query accounting identical to the sequential path: every
        // element counted, every element measured, hit/miss partition
        // exact (1 canonical-duplicate hit + 1 batch-duplicate hit).
        let stats = batched.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.cache_hits + stats.cache_misses, 5, "rejects are neither hit nor miss");
        assert_eq!(stats.cache_hits, 2);
        let registry = batched.metrics_registry();
        assert_eq!(registry.histogram("cdim_serve_query_seconds").count(), 6);
        assert_eq!(registry.gauge("cdim_serve_inflight_queries").get(), 0.0);

        // The batch populated the cache: a rerun is all hits.
        let again = batched.query_batch(&mixed);
        assert_eq!(again, expected);
        assert_eq!(batched.stats().cache_misses, stats.cache_misses);
    }

    #[test]
    fn empty_batch_is_free() {
        let svc = service(4);
        assert!(svc.query_batch(&[]).is_empty());
        assert_eq!(svc.stats().queries, 0);
    }

    #[test]
    fn batch_sees_one_consistent_snapshot_across_a_publish() {
        // A publish between query_batch calls invalidates the cache; the
        // batch that straddled the old epoch must not poison it.
        let svc = std::sync::Arc::new(service(64));
        let q = vec![Query::Spread { seeds: vec![0] }, Query::Spread { seeds: vec![1] }];
        svc.query_batch(&q);
        let ds = cdim_datagen::presets::tiny().generate();
        let store = scan(&ds.graph, &ds.log, &CreditPolicy::Uniform, 0.0).unwrap();
        svc.publish(ModelSnapshot::from_store(store));
        let misses_before = svc.stats().cache_misses;
        svc.query_batch(&q);
        assert_eq!(svc.stats().cache_misses, misses_before + 2, "publish cleared the cache");
    }

    #[test]
    fn concurrent_queries_agree_with_serial_answers() {
        let svc = std::sync::Arc::new(service(64));
        let serial: Vec<Answer> = (0..6u32)
            .map(|u| svc.query(&Query::Spread { seeds: vec![u % 3, u] }).unwrap())
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || {
                    (0..6u32)
                        .map(|u| svc.query(&Query::Spread { seeds: vec![u % 3, u] }).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), serial);
        }
    }

    #[test]
    fn a_huge_top_k_budget_gets_every_candidate_and_one_cache_entry() {
        let svc = service(16);
        let num_users = svc.snapshot().num_users() as u32;
        let Answer::TopKSeeds { seeds, gains } =
            svc.query(&Query::TopKSeeds { budget: u32::MAX }).unwrap()
        else {
            unreachable!()
        };
        assert!(!seeds.is_empty() && seeds.len() <= num_users as usize);
        assert_eq!(gains.len(), seeds.len());
        // Every budget past the user count is the same key.
        let misses = svc.stats().cache_misses;
        for budget in [num_users, num_users + 1, u32::MAX] {
            let again = svc.query(&Query::TopKSeeds { budget }).unwrap();
            assert_eq!(again, Answer::TopKSeeds { seeds: seeds.clone(), gains: gains.clone() });
        }
        assert_eq!(svc.stats().cache_misses, misses, "clamped budgets share one entry");
        // The service keeps answering.
        assert!(svc.query(&Query::Spread { seeds: vec![0] }).is_ok());
    }
}
