//! End-to-end serving smoke test: train on a datagen preset, persist a
//! snapshot, restore it, serve it over TCP on an ephemeral port, and hit
//! it from four concurrent client threads. Every response must equal the
//! answer computed offline — the top-k by `CdModel::select` on the same
//! store, every spread and every top-k gain by the hash-map oracle
//! `reference::CdSelector` — bit-exact, since client and
//! server share one canonical model state and one canonical evaluation
//! order.

use cdim::core::reference::CdSelector;
use cdim::prelude::*;
use std::sync::Arc;

/// The offline reference: canonical-order telescoped σ_cd on the oracle
/// (exactly what the service computes on a cache miss).
fn offline_spread(selector: &CdSelector, seeds: &[u32]) -> f64 {
    let mut canonical = seeds.to_vec();
    canonical.sort_unstable();
    canonical.dedup();
    let mut sel = selector.clone();
    let mut total = 0.0;
    for &s in &canonical {
        total += sel.compute_mg(s);
        sel.update(s);
    }
    total
}

#[test]
fn concurrent_tcp_queries_match_offline_selector() {
    // Train on a generated preset and round-trip the model through disk.
    let ds = cdim::datagen::presets::tiny().generate();
    let model = CdModel::train(&ds.graph, &ds.log, CdModelConfig::default());
    let snapshot = ModelSnapshot::from_store(model.store().clone());

    let dir = std::env::temp_dir().join(format!("cdim_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.snap");
    snapshot.save(&path).unwrap();
    let restored = ModelSnapshot::load(&path).unwrap();
    assert_eq!(restored.to_bytes(), snapshot.to_bytes(), "snapshot must reload bit-identically");

    // Offline answers from the same model state. The oracle re-evaluates
    // every gain bit for bit, the first round's included.
    let canonical = CdSelector::new(model.store().clone());
    let k = 5usize;
    let offline_selection = model.select(k);
    assert_eq!(offline_selection.seeds.len(), k);
    let mut oracle = canonical.clone();
    for (&s, gain) in offline_selection.seeds.iter().zip(&offline_selection.marginal_gains) {
        assert_eq!(gain.to_bits(), oracle.compute_mg(s).to_bits(), "gain of seed {s}");
        oracle.update(s);
    }
    let query_sets: Vec<Vec<u32>> = vec![
        offline_selection.seeds.clone(),
        vec![0, 1, 2],
        vec![7, 3],
        vec![4],
        offline_selection.seeds[..2].to_vec(),
    ];
    let expected_spreads: Vec<f64> =
        query_sets.iter().map(|s| offline_spread(&canonical, s)).collect();

    // Serve the snapshot on an ephemeral port.
    let service = Arc::new(InfluenceService::new(restored, 64));
    let handle = cdim::serve::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Four client threads, each issuing every TopK + Spread query.
    let offline_seeds = offline_selection.seeds.clone();
    let offline_gains = offline_selection.marginal_gains.clone();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let query_sets = query_sets.clone();
            let expected_spreads = expected_spreads.clone();
            let offline_seeds = offline_seeds.clone();
            let offline_gains = offline_gains.clone();
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).unwrap();
                for round in 0..3 {
                    let (seeds, gains) = client.top_k(k as u32).unwrap();
                    assert_eq!(seeds, offline_seeds, "round {round}");
                    for (got, want) in gains.iter().zip(&offline_gains) {
                        assert_eq!(got.to_bits(), want.to_bits(), "round {round}");
                    }
                    for (set, want) in query_sets.iter().zip(&expected_spreads) {
                        let sigma = client.spread(set).unwrap();
                        assert_eq!(
                            sigma.to_bits(),
                            want.to_bits(),
                            "spread({set:?}) = {sigma} vs offline {want}"
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // 4 threads × 3 rounds × 6 queries, only 6 distinct cache keys. A key
    // can miss once per thread when all four race through round 0, but
    // every thread's rounds 1–2 hit its own round-0 insertions, so at
    // most 4 × 6 misses and at least 48 hits.
    let stats = service.stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, 4 * 3 * 6);
    assert!(
        stats.cache_misses <= 4 * 6,
        "expected ≤24 misses, got {} (hits {})",
        stats.cache_misses,
        stats.cache_hits
    );
    assert!(stats.cache_hits >= 48, "expected ≥48 hits, got {}", stats.cache_hits);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_under_load_never_drops_a_query() {
    let ds = cdim::datagen::presets::tiny().generate();
    let uniform = CdModel::train(
        &ds.graph,
        &ds.log,
        CdModelConfig { policy: PolicyKind::Uniform, lambda: 0.0, ..Default::default() },
    );
    let time_aware = CdModel::train(&ds.graph, &ds.log, CdModelConfig::default());
    let snap_a = ModelSnapshot::from_store(uniform.store().clone());
    let snap_b = ModelSnapshot::from_store(time_aware.store().clone());

    let expect_a = offline_spread(&CdSelector::new(uniform.store().clone()), &[0, 1, 2]);
    let expect_b = offline_spread(&CdSelector::new(time_aware.store().clone()), &[0, 1, 2]);

    let service = Arc::new(InfluenceService::new(snap_a, 64));
    let handle = cdim::serve::spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let queriers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).unwrap();
                for _ in 0..50 {
                    let sigma = client.spread(&[0, 1, 2]).unwrap();
                    // Every answer is from exactly one published model —
                    // never an error, never a torn in-between value.
                    assert!(
                        sigma.to_bits() == expect_a.to_bits()
                            || sigma.to_bits() == expect_b.to_bits(),
                        "{sigma} matches neither model"
                    );
                }
            })
        })
        .collect();

    // Publish the retrained model mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(2));
    service.publish(snap_b);

    for q in queriers {
        q.join().unwrap();
    }
    // After the swap, new queries answer from the new model.
    let mut client = QueryClient::connect(addr).unwrap();
    let sigma = client.spread(&[0, 1, 2]).unwrap();
    assert_eq!(sigma.to_bits(), expect_b.to_bits());
    assert_eq!(service.stats().snapshots_published, 1);
    handle.shutdown();
}
