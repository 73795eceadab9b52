//! Quickstart: train the credit-distribution model on an action log and
//! pick seeds.
//!
//! Paper artifact: the end-to-end CD pipeline of §4–5 — the Algorithm-2
//! log scan, CELF with Theorem-3 marginal gains (Algorithm 3), and σ_cd
//! (Eq 8) as a spread predictor.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cdim::prelude::*;

fn main() {
    // A synthetic community with a planted influence process. With real
    // data you would load a graph and an action log instead:
    //   let graph = cdim::actionlog::storage::load_graph(path)?;
    //   let log   = cdim::actionlog::storage::load_action_log(path, n)?;
    let dataset = cdim::datagen::presets::flixster_small().scaled_down(4).generate();
    println!(
        "dataset: {} users, {} social edges, {} propagation traces, {} tuples",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.log.num_actions(),
        dataset.log.num_tuples()
    );

    // Hold out 20% of the traces for honest evaluation.
    let split = train_test_split(&dataset.log, 5);

    // Train: learns τ (propagation delays) and infl (user influenceability),
    // then scans the log once into the credit store (Algorithm 2).
    let model = CdModel::train(
        &dataset.graph,
        &split.train,
        CdModelConfig { policy: PolicyKind::TimeAware, lambda: 0.001, ..Default::default() },
    );
    println!(
        "credit store: {} entries, ~{} of memory",
        model.store().total_entries(),
        cdim::util::mem::fmt_bytes(model.store().memory_bytes())
    );

    // Influence maximization (Algorithm 3: CELF over Theorem-3 gains).
    let k = 10;
    let selection = model.select(k);
    println!("\ntop-{k} seeds (marginal gain in expected activations):");
    for (seed, gain) in selection.seeds.iter().zip(&selection.marginal_gains) {
        println!("  user {seed:>6}  +{gain:.2}");
    }

    // σ_cd is also a spread predictor for *any* seed set.
    let sigma = model.spread(&selection.seeds);
    println!("\npredicted spread of the chosen set: {sigma:.1} users");
    println!(
        "spread of a random set of the same size: {:.1} users",
        model.spread(&random_users(dataset.graph.num_nodes(), k))
    );
}

fn random_users(n: usize, k: usize) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(42);
    rng.sample_indices(n, k).into_iter().map(|i| i as u32).collect()
}
