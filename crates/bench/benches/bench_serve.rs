//! Query-latency benchmark for the influence-query service.
//!
//! Unlike the criterion-style micro-benchmarks, serving latency is a tail
//! phenomenon, so this target hand-rolls per-query timing and reports
//! p50/p90/p99 over a large query stream — by default 10,000 cached and
//! 10,000 uncached queries per scenario (`CDIM_BENCH_QUERIES` overrides),
//! for both the in-process engine and the full TCP loopback path.
//!
//! It then sweeps concurrent connections (`CDIM_BENCH_CONNS`, default
//! `64,1024,10000`) through the pipelined load generator against the
//! reactor. Sizes past the in-process fd budget serve from a re-exec'd
//! child.

use cdim_core::{scan, CreditPolicy};
use cdim_serve::{server, InfluenceService, ModelSnapshot, Query, QueryClient};
use cdim_util::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn queries_per_scenario() -> usize {
    std::env::var("CDIM_BENCH_QUERIES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10_000)
}

/// `count` random small seed sets, all distinct *after* the service's
/// canonicalization (sorted + deduplicated) — so a pass over them is
/// all cache misses and a replay is all hits.
fn random_seed_sets(num_users: u32, count: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::seed_from_u64(0xBEEF);
    let mut seen: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut sets = Vec::with_capacity(count);
    // Cycle lengths by draw attempt, not by collected count: small length
    // classes (only `num_users` distinct singletons exist) exhaust without
    // stalling the loop.
    let mut attempt = 0usize;
    while sets.len() < count {
        let len = 1 + attempt % 3;
        attempt += 1;
        let set: Vec<u32> =
            (0..len).map(|_| (rng.next_u64() % u64::from(num_users)) as u32).collect();
        let mut canonical = set.clone();
        canonical.sort_unstable();
        canonical.dedup();
        if seen.insert(canonical) {
            sets.push(set);
        }
    }
    sets
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn report(label: &str, mut samples: Vec<Duration>) {
    samples.sort_unstable();
    println!(
        "{label:<28} n={:<6} p50={:>10.2?} p90={:>10.2?} p99={:>10.2?} max={:>10.2?}",
        samples.len(),
        percentile(&samples, 0.50),
        percentile(&samples, 0.90),
        percentile(&samples, 0.99),
        samples[samples.len() - 1],
    );
}

fn connection_sweep_sizes() -> Vec<usize> {
    std::env::var("CDIM_BENCH_CONNS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![64, 1024, 10_000])
}

fn main() {
    // A re-exec'd serve child (sweep sizes past the fd budget) must not
    // rerun the benchmark itself.
    if cdim_bench::loadgen::maybe_run_server_child() {
        return;
    }
    let n = queries_per_scenario();
    let ds = cdim_datagen::presets::flixster_small().scaled_down(8).generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let store = scan(&ds.graph, &ds.log, &policy, 0.001).unwrap();
    let num_users = store.num_users() as u32;
    println!(
        "snapshot: {} users, {} actions, {} credit entries; {n} queries per scenario",
        store.num_users(),
        store.num_actions(),
        store.total_entries()
    );
    let service = Arc::new(InfluenceService::new(ModelSnapshot::from_store(store), n + 16));

    // Uncached engine latency: every seed set is distinct.
    let sets = random_seed_sets(num_users, n);
    let mut samples = Vec::with_capacity(n);
    for seeds in &sets {
        let q = Query::Spread { seeds: seeds.clone() };
        let start = Instant::now();
        service.query(&q).unwrap();
        samples.push(start.elapsed());
    }
    report("engine spread (uncached)", samples);

    // Cached engine latency: replay the same stream — all hits.
    let mut samples = Vec::with_capacity(n);
    for seeds in &sets {
        let q = Query::Spread { seeds: seeds.clone() };
        let start = Instant::now();
        service.query(&q).unwrap();
        samples.push(start.elapsed());
    }
    report("engine spread (cached)", samples);
    let stats = service.stats();
    assert!(stats.cache_hits >= n as u64, "expected ≥{n} hits, got {}", stats.cache_hits);

    // Full TCP loopback path, one blocking client: uncached then cached.
    let fresh = Arc::new(InfluenceService::new(
        ModelSnapshot::from_bytes(&service.snapshot().to_bytes()).unwrap(),
        n + 16,
    ));
    let handle = server::spawn(fresh, "127.0.0.1:0").unwrap();
    let mut client = QueryClient::connect(handle.addr()).unwrap();
    let mut uncached = Vec::with_capacity(n);
    for seeds in &sets {
        let start = Instant::now();
        client.spread(seeds).unwrap();
        uncached.push(start.elapsed());
    }
    report("tcp spread (uncached)", uncached);
    let mut cached = Vec::with_capacity(n);
    for seeds in &sets {
        let start = Instant::now();
        client.spread(seeds).unwrap();
        cached.push(start.elapsed());
    }
    report("tcp spread (cached)", cached);
    handle.shutdown();

    // Concurrent-connection sweep: pipelined clients, p50/p99 per cell.
    let sizes = connection_sweep_sizes();
    println!("\nconcurrent-connection sweep: {sizes:?} (CDIM_BENCH_CONNS to override)");
    for row in cdim_bench::experiments::serve::sweep(&sizes, 8, 8) {
        println!(
            "conns={:<6} n={:<7} qps={:>8.0} p50={:>10.2?} p90={:>10.2?} p99={:>10.2?} max={:>10.2?}",
            row.connections,
            row.report.requests,
            row.report.qps(),
            row.report.p50,
            row.report.p90,
            row.report.p99,
            row.report.max,
        );
    }
}
