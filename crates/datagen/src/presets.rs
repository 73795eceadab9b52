//! Named dataset presets mirroring Table 1 (scaled).
//!
//! The paper's datasets, and our laptop-scale stand-ins (each experiment
//! prints the divisor it scales them by in its banner):
//!
//! | paper            | nodes | edges | props | here             | nodes |
//! |------------------|-------|-------|-------|------------------|-------|
//! | Flixster_Small   | 13K   | 192K  | 25K   | `flixster_small` | 1.6K  |
//! | Flickr_Small     | 14.8K | 1.17M | 28.5K | `flickr_small`   | 1.9K  |
//! | Flixster_Large   | 1M    | 28M   | 49K   | `flixster_large` | 60K   |
//! | Flickr_Large     | 1.32M | 81M   | 296K  | `flickr_large`   | 90K   |
//!
//! The *Small* presets keep the paper's contrast: Flixster-like sparse
//! (avg degree ≈ 14) vs Flickr-like dense (avg degree ≈ 60+). The *Large*
//! presets exist to exercise scalability (Figs 8–9, Table 4), not
//! accuracy.

use crate::cascades::{generate_cascades, CascadeConfig};
use crate::graphgen::{preferential_attachment, GraphGenConfig};
use crate::groundtruth::{GroundTruth, GroundTruthConfig};
use cdim_actionlog::ActionLog;
use cdim_graph::DirectedGraph;

/// Everything needed to run an experiment on one dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Preset name (e.g. `flixster_small`).
    pub name: &'static str,
    /// The social graph.
    pub graph: DirectedGraph,
    /// The full action log (experiments split it 80/20 themselves).
    pub log: ActionLog,
    /// The planted ground truth (not visible to any learner; kept for
    /// diagnostics).
    pub truth: GroundTruth,
}

/// A fully-specified generation recipe.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Preset name.
    pub name: &'static str,
    /// Graph recipe.
    pub graph: GraphGenConfig,
    /// Ground-truth recipe.
    pub truth: GroundTruthConfig,
    /// Cascade recipe.
    pub cascades: CascadeConfig,
}

impl DatasetSpec {
    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let graph = preferential_attachment(self.graph);
        let truth = GroundTruth::generate(&graph, self.truth);
        let log = generate_cascades(&graph, &truth, self.cascades);
        Dataset { name: self.name, graph, log, truth }
    }

    /// Returns a copy scaled down by `factor` (nodes and actions divided),
    /// for quick tests and benches.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        assert!(factor >= 1);
        self.graph.nodes = (self.graph.nodes / factor).max(50);
        self.cascades.actions = (self.cascades.actions / factor).max(20);
        self
    }
}

/// Flixster-like sparse community (accuracy experiments).
pub fn flixster_small() -> DatasetSpec {
    DatasetSpec {
        name: "flixster_small",
        graph: GraphGenConfig { nodes: 1_600, attach: 7, reciprocity: 0.35, seed: 0xF1A },
        truth: GroundTruthConfig { max_prob: 0.42, seed: 0xF1B, ..Default::default() },
        cascades: CascadeConfig {
            actions: 3_100,
            max_cascade_size: 1_000,
            seed: 0xF1C,
            ..Default::default()
        },
    }
}

/// Flickr-like dense community (accuracy experiments; MC-greedy hostile).
pub fn flickr_small() -> DatasetSpec {
    DatasetSpec {
        name: "flickr_small",
        graph: GraphGenConfig { nodes: 1_900, attach: 30, reciprocity: 0.5, seed: 0xF2A },
        truth: GroundTruthConfig {
            // Denser graph: weaker ties (mean p ≈ 0.018 at avg degree ≈ 42
            // keeps the cascade branching factor just below 1), or
            // everything merges into one global cascade.
            max_prob: 0.09,
            prob_skew: 4.0,
            seed: 0xF2B,
            ..Default::default()
        },
        cascades: CascadeConfig {
            actions: 3_600,
            max_cascade_size: 600,
            seed: 0xF2C,
            ..Default::default()
        },
    }
}

/// Flixster-like large network (scalability experiments).
pub fn flixster_large() -> DatasetSpec {
    DatasetSpec {
        name: "flixster_large",
        graph: GraphGenConfig { nodes: 60_000, attach: 12, reciprocity: 0.35, seed: 0xF3A },
        truth: GroundTruthConfig {
            // Avg degree ≈ 16: rescale tie strength for subcritical spread.
            max_prob: 0.22,
            seed: 0xF3B,
            ..Default::default()
        },
        cascades: CascadeConfig {
            actions: 6_000,
            max_cascade_size: 2_000,
            seed: 0xF3C,
            ..Default::default()
        },
    }
}

/// Flickr-like large network (scalability experiments).
pub fn flickr_large() -> DatasetSpec {
    DatasetSpec {
        name: "flickr_large",
        graph: GraphGenConfig { nodes: 90_000, attach: 25, reciprocity: 0.5, seed: 0xF4A },
        truth: GroundTruthConfig {
            // Avg degree ≈ 37: weak ties keep cascades heavy-tailed.
            max_prob: 0.085,
            prob_skew: 4.0,
            seed: 0xF4B,
            ..Default::default()
        },
        cascades: CascadeConfig {
            actions: 5_000,
            max_cascade_size: 1_500,
            seed: 0xF4C,
            ..Default::default()
        },
    }
}

/// All four presets, small first.
pub fn all_presets() -> Vec<DatasetSpec> {
    vec![flixster_small(), flickr_small(), flixster_large(), flickr_large()]
}

/// A miniature dataset for unit tests and doc examples (fast to build).
///
/// ```
/// let ds = cdim_datagen::presets::tiny().generate();
/// assert_eq!(ds.graph.num_nodes(), 120);
/// assert_eq!(ds.log.num_actions(), 250);
/// // Fixed seeds: regeneration is bit-identical.
/// assert_eq!(ds.log, cdim_datagen::presets::tiny().generate().log);
/// ```
pub fn tiny() -> DatasetSpec {
    DatasetSpec {
        name: "tiny",
        graph: GraphGenConfig { nodes: 120, attach: 5, reciprocity: 0.3, seed: 0x71 },
        truth: GroundTruthConfig { seed: 0x72, ..Default::default() },
        cascades: CascadeConfig {
            actions: 250,
            max_cascade_size: 60,
            seed: 0x73,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdim_actionlog::stats::log_stats;
    use cdim_graph::stats::graph_stats;

    #[test]
    fn tiny_preset_generates_quickly_and_sanely() {
        let ds = tiny().generate();
        assert_eq!(ds.graph.num_nodes(), 120);
        assert_eq!(ds.log.num_actions(), 250);
        assert_eq!(ds.log.num_users(), ds.graph.num_nodes());
        let stats = log_stats(&ds.log);
        assert!(stats.tuples >= 250);
    }

    #[test]
    fn small_presets_have_contrasting_density() {
        let fx = flixster_small().scaled_down(4).generate();
        let fl = flickr_small().scaled_down(4).generate();
        let fx_deg = graph_stats(&fx.graph).avg_degree;
        let fl_deg = graph_stats(&fl.graph).avg_degree;
        assert!(
            fl_deg > 2.5 * fx_deg,
            "flickr-like ({fl_deg}) must be much denser than flixster-like ({fx_deg})"
        );
    }

    #[test]
    fn scaled_down_shrinks() {
        let spec = flixster_small().scaled_down(8);
        assert_eq!(spec.graph.nodes, 200);
        assert_eq!(spec.cascades.actions, 387);
    }

    #[test]
    fn presets_are_deterministic() {
        let a = tiny().generate();
        let b = tiny().generate();
        assert_eq!(a.log, b.log);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn all_presets_enumerates_four() {
        let names: Vec<_> = all_presets().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["flixster_small", "flickr_small", "flixster_large", "flickr_large"]);
    }
}
