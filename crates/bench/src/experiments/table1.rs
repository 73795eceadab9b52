//! Table 1 — dataset statistics.

use crate::config::ExperimentScale;
use cdim_actionlog::stats::log_stats;
use cdim_datagen::presets;
use cdim_graph::stats::graph_stats;
use cdim_metrics::Table;

/// Prints node/edge/propagation/tuple statistics for all four presets.
pub fn run(scale: ExperimentScale) {
    super::banner(
        "Table 1 — statistics of datasets",
        "Table 1 (paper: Flixster/Flickr Large 1M–1.32M nodes, Small 13K–14.8K; synthetic stand-ins)",
        scale,
    );
    let mut table = Table::new([
        "dataset",
        "#nodes",
        "#dir.edges",
        "avg.degree",
        "#propagations",
        "#tuples",
        "avg.trace",
        "max.trace",
    ]);
    for spec in presets::all_presets() {
        let ds = spec.scaled_down(scale.dataset_divisor).generate();
        let gs = graph_stats(&ds.graph);
        let ls = log_stats(&ds.log);
        table.row([
            ds.name.to_string(),
            gs.nodes.to_string(),
            gs.edges.to_string(),
            format!("{:.1}", gs.avg_degree),
            ls.propagations.to_string(),
            ls.tuples.to_string(),
            format!("{:.1}", ls.avg_size),
            ls.max_size.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "shape check vs paper: the flickr-like presets are several times denser\n\
         (avg degree) than the flixster-like ones, and trace sizes are heavy-tailed."
    );
}
