#![warn(missing_docs)]
//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment is a function that prints the same rows/series the
//! paper reports (the README's "Running the paper experiments" lists
//! them). The binary
//! `experiments` dispatches on the experiment id:
//!
//! ```text
//! cargo run --release -p cdim-bench --bin experiments -- table1
//! cargo run --release -p cdim-bench --bin experiments -- all
//! ```
//!
//! Scale note: the MC-greedy baselines are run with fewer simulations and
//! smaller graphs than the paper's 10,000-simulation runs on million-node
//! crawls — at paper scale those baselines take tens of hours *by the
//! paper's own measurement* (Fig 7), which is exactly the phenomenon being
//! reproduced. Every scaling knob lives in [`config::ExperimentScale`] and
//! is printed alongside results.
//!
//! Only paper artifacts live here. The system's own performance (scan
//! ns/tuple, CELF, snapshot load, serving, ingest) is measured by the
//! repository's `perfbench/` harness.

pub mod config;
pub mod experiments;
pub mod methods;
pub mod prediction;

pub use config::ExperimentScale;
pub use methods::Workbench;
