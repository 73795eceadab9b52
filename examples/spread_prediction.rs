//! Spread prediction on held-out propagation traces.
//!
//! For every test trace, each model predicts how far the trace's
//! initiators will spread; the truth is the trace's actual size. This is
//! the paper's §3/§6 accuracy methodology (Figs 2–4) in example form,
//! comparing the CD model with EM-learned IC and the weighted-cascade
//! assignment.
//!
//! Paper artifact: Figs 2–4 (spread-prediction accuracy of CD vs IC-EM
//! and weighted cascade on held-out traces; §3/§6 methodology).
//!
//! ```text
//! cargo run --release --example spread_prediction
//! ```

use cdim::learning::assign;
use cdim::metrics::{capture_ratio_at, rmse, Table};
use cdim::prelude::*;

fn main() {
    let dataset = cdim::datagen::presets::flixster_small().scaled_down(2).generate();
    let split = train_test_split(&dataset.log, 5);
    let graph = &dataset.graph;

    // Competitors.
    let model = CdModel::train(graph, &split.train, CdModelConfig::default());
    let em = EmLearner::new(graph, &split.train).learn(EmConfig::default()).0;
    let wc = assign::weighted_cascade(graph);
    let mc = McConfig { simulations: 200, threads: 0, base_seed: 1 };

    // Collect (actual, predicted) pairs over the test traces.
    let mut pairs_cd = Vec::new();
    let mut pairs_em = Vec::new();
    let mut pairs_wc = Vec::new();
    let traces =
        PropagationArena::build(&split.test, graph, 0..split.test.num_actions().min(200) as u32);
    for dag in traces.dags() {
        let initiators = dag.initiators();
        let actual = dag.len() as f64;
        pairs_cd.push((actual, model.spread(&initiators)));
        let est_em = MonteCarloEstimator::new(IcModel::new(graph, &em), mc);
        pairs_em.push((actual, est_em.spread(&initiators)));
        let est_wc = MonteCarloEstimator::new(IcModel::new(graph, &wc), mc);
        pairs_wc.push((actual, est_wc.spread(&initiators)));
    }

    let mut table = Table::new(["model", "RMSE", "captured ≤5", "captured ≤20"]);
    for (name, pairs) in [("CD", &pairs_cd), ("IC+EM", &pairs_em), ("IC+WC", &pairs_wc)] {
        table.row([
            name.to_string(),
            format!("{:.1}", rmse(pairs)),
            format!("{:.0}%", 100.0 * capture_ratio_at(pairs, 5.0)),
            format!("{:.0}%", 100.0 * capture_ratio_at(pairs, 20.0)),
        ]);
    }
    println!("{} test traces\n", pairs_cd.len());
    println!("{table}");

    println!("a few individual predictions (actual vs CD vs IC+EM):");
    for ((a, cd), (_, em)) in pairs_cd.iter().zip(&pairs_em).take(8) {
        println!("  actual {a:>6.0}   cd {cd:>8.1}   ic+em {em:>8.1}");
    }
}
