//! Fig 8 — CD scalability: runtime (left) and memory (right) vs #tuples.
//!
//! Paper shape: both scan time and credit-store memory grow roughly
//! linearly with the number of training tuples; most of the total time is
//! the scan, not the seed selection.

use crate::config::ExperimentScale;
use cdim_core::{scan_with, CreditPolicy};
use cdim_datagen::presets;
use cdim_metrics::Table;
use cdim_util::mem::fmt_bytes;
use cdim_util::Timer;

/// Prints runtime/memory vs training-tuple count on both large presets.
pub fn run(scale: ExperimentScale) {
    super::banner(
        "Fig 8 — CD runtime (left) and memory (right) vs #tuples",
        "Fig 8 (paper: ~linear growth; scan dominates; 15 min / 16 GB at 5–6.5M tuples)",
        scale,
    );
    for spec in [presets::flixster_large(), presets::flickr_large()] {
        run_dataset(spec, scale);
    }
}

fn run_dataset(spec: cdim_datagen::DatasetSpec, scale: ExperimentScale) {
    let ds = spec.scaled_down(scale.dataset_divisor).generate();
    let total = ds.log.num_tuples();
    println!("--- {} ({} tuples total) ---", ds.name, total);

    let mut table =
        Table::new(["#tuples", "scan (s)", "select (s)", "total (s)", "UC entries", "memory"]);
    let mut series: Vec<(usize, f64, usize)> = Vec::new();
    for fraction in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let budget = ((total as f64) * fraction) as usize;
        let log = ds.log.take_tuples(budget);
        let tuples = log.num_tuples();

        let t = Timer::start();
        let policy = CreditPolicy::time_aware(&ds.graph, &log);
        let store = scan_with(&ds.graph, &log, &policy, 0.001, scale.parallelism()).unwrap();
        let scan_s = t.secs();
        let entries = store.total_entries();
        let bytes = store.memory_bytes();

        let t = Timer::start();
        let _ = store.overlay().select(scale.k);
        let select_s = t.secs();

        series.push((tuples, scan_s + select_s, bytes));
        table.row([
            tuples.to_string(),
            format!("{scan_s:.2}"),
            format!("{select_s:.2}"),
            format!("{:.2}", scan_s + select_s),
            entries.to_string(),
            fmt_bytes(bytes),
        ]);
    }
    println!("{table}");

    // Shape check: near-linear growth — the largest run should cost no
    // more than ~2x a linear extrapolation of the smallest.
    if let (Some(first), Some(last)) = (series.first(), series.last()) {
        let time_ratio = last.1 / first.1.max(1e-9);
        let tuple_ratio = last.0 as f64 / first.0.max(1) as f64;
        let mem_ratio = last.2 as f64 / first.2.max(1) as f64;
        println!(
            "shape check: tuples x{tuple_ratio:.1} -> time x{time_ratio:.1}, memory x{mem_ratio:.1} \
             (linear would be x{tuple_ratio:.1})\n"
        );
    }
}
