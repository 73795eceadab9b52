#![warn(missing_docs)]
//! Synthetic social networks and action logs.
//!
//! The paper evaluates on proprietary crawls of Flixster (movie ratings)
//! and Flickr (group joins). Those crawls are not redistributable, so this
//! crate synthesizes datasets with the same *shape* ([`presets`] sets
//! each stand-in beside the paper's dataset):
//!
//! * [`graphgen`] — directed preferential-attachment social graphs with
//!   tunable average degree and reciprocity (heavy-tailed degrees, like
//!   real follower graphs);
//! * [`groundtruth`] — a *planted* influence process: per-edge influence
//!   probabilities and mean propagation delays, per-user activity;
//! * [`cascades`] — continuous-time independent-cascade simulation that
//!   emits `(user, action, time)` tuples — the ground-truth process the
//!   learners (EM, LT weights, CD) later try to recover;
//! * [`presets`] — the four named datasets mirroring Table 1, scaled to
//!   laptop size with fixed seeds.

pub mod cascades;
pub mod graphgen;
pub mod groundtruth;
pub mod presets;

pub use cascades::{generate_cascades, CascadeConfig};
pub use graphgen::{preferential_attachment, GraphGenConfig};
pub use groundtruth::{GroundTruth, GroundTruthConfig};
pub use presets::{Dataset, DatasetSpec};
