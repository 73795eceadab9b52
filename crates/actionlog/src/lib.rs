#![warn(missing_docs)]
//! The action log `L(User, Action, Time)` — the paper's central data model.
//!
//! A tuple `(u, a, t)` records that user `u` performed action `a` at time
//! `t` (§4 "Data Model"). The log, combined with the social graph, induces
//! one *propagation graph* `G(a)` per action: a DAG whose edge `(v, u)`
//! means `v` and `u` are socially linked and `v` performed `a` strictly
//! before `u`.
//!
//! Modules:
//! * [`log`] — the columnar, action-partitioned [`ActionLog`] store;
//! * [`delta`] — append-only [`ActionLogDelta`] batches for incremental
//!   retraining;
//! * [`propagation`] — the propagation DAGs of an action range in one
//!   flat, hash-free [`PropagationArena`], built once (training builds
//!   one over the whole log and shares it among every reader) and read
//!   through a borrowed per-action [`PropagationDag`] view;
//! * [`split`] — the paper's 80/20 size-stratified train/test split;
//! * [`stats`] — the action-log half of Table 1;
//! * [`storage`] — buffered TSV persistence.

pub mod delta;
pub mod log;
pub mod propagation;
pub mod split;
pub mod stats;
pub mod storage;

pub use delta::ActionLogDelta;
pub use log::{
    ActionId, ActionLog, ActionLogBuilder, ActionTuple, LogBuildError, Timestamp, UserId,
};
pub use propagation::{PropagationArena, PropagationDag};
pub use split::{train_test_split, TrainTestSplit};
pub use storage::{RawTuple, StorageError, TupleDecoder};
