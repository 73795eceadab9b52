#![warn(missing_docs)]
//! Live action-log ingestion — the streaming front half of the online
//! retraining pipeline.
//!
//! The paper's model is *data-based*: influence is learned straight from
//! the action log, and a production log is not a frozen file but a stream
//! that grows while the model serves queries. PR 4 made retraining
//! append-only and exact ([`cdim_actionlog::ActionLogDelta`] →
//! [`cdim_core::incremental`] → [`cdim_serve::InfluenceService::publish_delta`]);
//! this crate supplies the missing subsystem that turns a live log file
//! into that delta stream automatically:
//!
//! ```text
//!   producer ──▶ actions.tsv (append-only)
//!                    │  poll, complete \n-terminated records only
//!               [LogFollower]           — tail -f semantics, typed
//!                    │  RawTuple + position    truncation detection
//!               [MicroBatcher]          — seals whole actions, cuts
//!                    │  ActionLogDelta         deltas by count/age,
//!                    │                         quarantines stragglers
//!               [IngestDriver]          — extend on the worker pool,
//!                    │                         atomic hot-swap
//!               [InfluenceService] ──▶ queries (cdim serve protocol)
//!                    │
//!               checkpoint file         — (snapshot, byte offset,
//!                                          line, watermark): restart
//!                                          without a rescan
//! ```
//!
//! **The guarantee.** For a well-formed producer (actions appended in
//! ascending external-id order, each action's records contiguous and
//! time-sorted — exactly what [`cdim_actionlog::storage::write_action_log`]
//! emits), the trained state after `finish()` is **byte-identical** to a
//! one-shot offline train over the completed file — for any interleaving
//! of partial writes, poll timings, batch boundaries, thread counts and
//! checkpoint/restart cycles. Records that violate the append-only
//! contract (a tuple for an already-retired action, a timestamp running
//! backwards inside the open action) are quarantined to a dead-letter
//! sink instead of silently corrupting the model.
//!
//! **Sliding windows.** With a [`WindowPolicy`] (bound the model by
//! action count or by external-id age behind the watermark), the driver
//! also *expires*: at every checkpoint boundary it retracts the
//! out-of-window prefix via
//! [`cdim_serve::InfluenceService::retract_delta`], and the guarantee
//! tightens to: the trained state is byte-identical to a one-shot train
//! over **just the surviving window** — again for any interleaving,
//! batch size, thread count and crash/restart schedule, including
//! restarts that straddle an expiry boundary (checkpoints carry the
//! window's tuple buffer, format v2).
//!
//! ```no_run
//! use cdim_ingest::{FollowConfig, IngestDriver};
//! use cdim_core::CreditPolicy;
//! use std::path::Path;
//!
//! # fn main() -> Result<(), cdim_ingest::IngestError> {
//! let graph = cdim_actionlog::storage::load_graph(Path::new("graph.tsv")).unwrap();
//! let mut driver = IngestDriver::open(
//!     graph,
//!     CreditPolicy::Uniform,
//!     Path::new("actions.tsv"),
//!     Path::new("model.ckpt"),
//!     FollowConfig::default(),
//! )?;
//! let service = driver.service().clone(); // hand to cdim_serve::spawn
//! driver.run(|report| eprintln!("{report}"))?;
//! # let _ = service;
//! # Ok(())
//! # }
//! ```

pub mod batcher;
pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod follower;
mod metrics;

pub use batcher::{BatchConfig, DeadLetter, MicroBatcher, QuarantineReason};
pub use checkpoint::{Checkpoint, WindowEntry};
pub use driver::{BatchReport, FollowConfig, IngestDriver, StepReport, WindowPolicy};
pub use error::IngestError;
pub use follower::{LogFollower, Record};
