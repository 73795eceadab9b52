//! Fig 9 — convergence with training-set size.
//!
//! Paper shape: both the spread achieved by the selected seeds and the
//! overlap with the "true seeds" (those selected from the *full* log)
//! saturate well before the full log is used — a small sample of traces
//! suffices.

use crate::config::ExperimentScale;
use cdim_actionlog::PropagationArena;
use cdim_core::{scan_dags, scan_with, CdSpreadEvaluator, CreditPolicy};
use cdim_datagen::presets;
use cdim_learning::TemporalModel;
use cdim_metrics::{intersection_size, Table};

/// Prints spread + true-seed overlap vs #tuples on both large presets.
pub fn run(scale: ExperimentScale) {
    super::banner(
        "Fig 9 — spread and true-seed recovery vs #tuples",
        "Fig 9 (paper: quality saturates at ~1M of 6.5M tuples on Flixster)",
        scale,
    );
    for spec in [presets::flixster_large(), presets::flickr_large()] {
        run_dataset(spec, scale);
    }
}

fn run_dataset(spec: cdim_datagen::DatasetSpec, scale: ExperimentScale) {
    let ds = spec.scaled_down(scale.dataset_divisor).generate();
    let k = scale.k;

    // "True seeds" and the reference evaluator come from the full log.
    let dags = PropagationArena::build(&ds.log, &ds.graph, ds.log.actions());
    let policy_full = CreditPolicy::TimeAware(TemporalModel::learn(&dags));
    let evaluator = CdSpreadEvaluator::build(&dags, &policy_full);
    let store_full = scan_dags(dags, &policy_full, 0.001, scale.parallelism()).unwrap();
    let true_seeds = store_full.overlay().select(k).seeds;

    println!("--- {} ({} tuples total) ---", ds.name, ds.log.num_tuples());
    let mut table = Table::new(["#tuples", "influence spread", "true seeds found"]);
    let mut last_fraction_spread = 0.0;
    let mut mid_spread = 0.0;
    for fraction in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let budget = ((ds.log.num_tuples() as f64) * fraction) as usize;
        let log = ds.log.take_tuples(budget);
        let policy = CreditPolicy::time_aware(&ds.graph, &log);
        let store = scan_with(&ds.graph, &log, &policy, 0.001, scale.parallelism()).unwrap();
        let seeds = store.overlay().select(k).seeds;
        let spread = evaluator.spread(&seeds);
        let overlap = intersection_size(&seeds, &true_seeds);
        if (fraction - 0.4).abs() < 1e-9 {
            mid_spread = spread;
        }
        if (fraction - 1.0).abs() < 1e-9 {
            last_fraction_spread = spread;
        }
        table.row([log.num_tuples().to_string(), format!("{spread:.1}"), format!("{overlap}/{k}")]);
    }
    println!("{table}");
    println!(
        "shape check: spread at 40% of tuples is {:.0}% of full-log spread (saturation)\n",
        100.0 * mid_spread / last_fraction_spread.max(1e-9)
    );
}
