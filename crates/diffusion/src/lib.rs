#![warn(missing_docs)]
//! Discrete-time propagation models and Monte-Carlo spread estimation.
//!
//! This crate is the "standard approach" half of the paper (§2): the
//! Independent Cascade (IC) and Linear Threshold (LT) models of Kempe et
//! al., plus the Monte-Carlo machinery used to estimate the expected spread
//! σ_m(S). Computing σ_m exactly is #P-hard for both models, so the
//! estimator samples possible worlds — the very cost the credit
//! distribution model is designed to avoid.
//!
//! * [`probs`] — per-edge influence probabilities/weights aligned to the
//!   CSR arrays of [`cdim_graph::DirectedGraph`];
//! * [`ic`] — Independent Cascade simulation;
//! * [`lt`] — Linear Threshold simulation (the threshold form; its tests
//!   cross-check it against Kempe's equivalent live-edge form);
//! * [`mc`] — the (optionally multi-threaded) Monte-Carlo estimator.

pub mod ic;
pub mod lt;
pub mod mc;
pub mod probs;

pub use ic::IcModel;
pub use lt::LtModel;
pub use mc::{McConfig, MonteCarloEstimator};
pub use probs::EdgeProbabilities;
