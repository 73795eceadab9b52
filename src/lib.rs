#![warn(missing_docs)]
//! # cdim — credit-distribution influence maximization
//!
//! A from-scratch Rust reproduction of Goyal, Bonchi & Lakshmanan,
//! *"A Data-Based Approach to Social Influence Maximization"* (PVLDB 5(1),
//! 2011), together with every substrate the paper's evaluation needs:
//! IC/LT propagation with Monte-Carlo estimation, EM probability learning,
//! LT weight learning, CELF, the MIA (PMIA) and LDAG heuristics,
//! structural baselines, synthetic Flixster/Flickr-shaped datasets, and an
//! experiment harness for every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use cdim::prelude::*;
//!
//! // A synthetic social network + action log (stand-in for a real crawl).
//! let dataset = cdim::datagen::presets::tiny().generate();
//!
//! // Split traces 80/20, train the credit-distribution model.
//! let split = train_test_split(&dataset.log, 5);
//! let model = CdModel::train(&dataset.graph, &split.train, CdModelConfig::default());
//!
//! // Influence maximization: pick 5 seeds with CELF (Algorithm 3).
//! let selection = model.select(5);
//! assert_eq!(selection.seeds.len(), 5);
//!
//! // Predict the spread of any seed set directly from the data.
//! let sigma = model.spread(&selection.seeds);
//! assert!(sigma >= selection.total_gain() - 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | CSR digraph, BFS, PageRank, degree stats |
//! | [`actionlog`] | the `(user, action, time)` log, propagation DAGs, splits, TSV storage |
//! | [`diffusion`] | IC and LT models, parallel Monte-Carlo spread estimation |
//! | [`learning`] | UN/TV/WC assignments, EM (Saito et al.), LT weights, τ/infl |
//! | [`maxim`] | greedy, CELF, HighDegree/PageRank/Random, MIA, LDAG |
//! | [`core`] | the credit-distribution model (scan, CELF, exact σ_cd) |
//! | [`datagen`] | synthetic graphs, planted influence, cascade logs, presets |
//! | [`metrics`] | RMSE, capture curves, intersections, text tables |
//! | [`serve`] | model snapshots, the concurrent influence-query service, TCP protocol |
//! | [`ingest`] | live log tailing, micro-batched deltas, zero-downtime online retraining |
//! | [`obs`] | metrics registry, latency histograms, Prometheus-text scrape endpoint |

pub use cdim_actionlog as actionlog;
pub use cdim_core as core;
pub use cdim_datagen as datagen;
pub use cdim_diffusion as diffusion;
pub use cdim_graph as graph;
pub use cdim_ingest as ingest;
pub use cdim_learning as learning;
pub use cdim_maxim as maxim;
pub use cdim_metrics as metrics;
pub use cdim_obs as obs;
pub use cdim_serve as serve;
pub use cdim_util as util;

/// The most common imports in one line.
pub mod prelude {
    pub use cdim_actionlog::{
        train_test_split, ActionLog, ActionLogBuilder, ActionLogDelta, PropagationArena,
        PropagationDag, TrainTestSplit,
    };
    pub use cdim_core::{
        model::PolicyKind, scan, scan_with, CdModel, CdModelConfig, CdSpreadEvaluator,
        CompactSelector, CreditPolicy, ExtendError, ScanError,
    };
    pub use cdim_datagen::{Dataset, DatasetSpec};
    pub use cdim_diffusion::{EdgeProbabilities, IcModel, LtModel, McConfig, MonteCarloEstimator};
    pub use cdim_graph::{DirectedGraph, GraphBuilder, NodeId};
    pub use cdim_ingest::{FollowConfig, IngestDriver, IngestError};
    pub use cdim_learning::{learn_lt_weights, EmConfig, EmLearner, TemporalModel};
    pub use cdim_maxim::{celf_select, greedy_select, Selection, SpreadOracle};
    pub use cdim_serve::{InfluenceService, ModelSnapshot, QueryClient};
    pub use cdim_util::{Parallelism, Rng};
}
