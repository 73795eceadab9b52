//! The train-once / query-many serving loop in one file.
//!
//! Trains the CD model on a synthetic preset, persists it as a snapshot,
//! restores it into an [`cdim::serve::InfluenceService`], serves it over
//! TCP on an ephemeral port, and queries it from a few concurrent client
//! threads — then hot-swaps a retrained model with zero downtime.
//!
//! Paper artifact: §5's observation that selection and prediction read
//! only the credit store, which is what makes the CD model servable
//! without the log or simulations.
//!
//! ```text
//! cargo run --release --example online_service
//! ```

use cdim::prelude::*;
use std::sync::Arc;

fn main() {
    // Train and snapshot.
    let ds = cdim::datagen::presets::flixster_small().scaled_down(8).generate();
    let model = CdModel::train(&ds.graph, &ds.log, CdModelConfig::default());
    let snapshot = ModelSnapshot::from_store(model.store().clone());
    let path = std::env::temp_dir().join("cdim_online_service.snap");
    snapshot.save(&path).expect("writing snapshot");
    println!(
        "snapshot: {} users, {} actions → {}",
        snapshot.num_users(),
        snapshot.num_actions(),
        path.display()
    );

    // Restore and serve.
    let restored = ModelSnapshot::load(&path).expect("reading snapshot");
    let service = Arc::new(InfluenceService::new(restored, 1024));
    let handle = cdim::serve::spawn(Arc::clone(&service), "127.0.0.1:0").expect("binding");
    let addr = handle.addr();
    println!("serving on {addr}");

    // Concurrent clients: top-k, then spreads of prefixes of the answer.
    let workers: Vec<_> = (0..4)
        .map(|worker| {
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connecting");
                let (seeds, gains) = client.top_k(10).expect("top-k");
                let mut rows = Vec::new();
                for take in [1usize, 5, 10] {
                    let sigma = client.spread(&seeds[..take]).expect("spread");
                    rows.push((take, sigma));
                }
                (worker, seeds, gains, rows)
            })
        })
        .collect();
    for w in workers {
        let (worker, seeds, gains, rows) = w.join().unwrap();
        println!(
            "client {worker}: top seed {} (gain {:.2}); spreads {:?}",
            seeds[0],
            gains[0],
            rows.iter().map(|(k, s)| format!("k={k}:{s:.1}")).collect::<Vec<_>>()
        );
    }

    // Zero-downtime retrain: publish a uniform-policy model.
    let retrained = CdModel::train(
        &ds.graph,
        &ds.log,
        CdModelConfig { policy: PolicyKind::Uniform, lambda: 0.001, ..Default::default() },
    );
    service.publish(ModelSnapshot::from_store(retrained.store().clone()));
    let mut client = QueryClient::connect(addr).expect("reconnecting");
    let (seeds, _) = client.top_k(3).expect("top-k after swap");
    let stats = service.stats();
    println!(
        "after hot swap: top-3 = {seeds:?} ({} hits / {} misses, {} snapshot published)",
        stats.cache_hits, stats.cache_misses, stats.snapshots_published
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
