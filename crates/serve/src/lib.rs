#![warn(missing_docs)]
//! Online serving for the credit-distribution model.
//!
//! The paper's central observation is that once Algorithm 2 has scanned
//! the action log into the credit store, seed selection and spread
//! prediction need *only* that store — no log, no graph, no Monte-Carlo
//! simulation. That makes the CD model uniquely suited to train-once /
//! query-many serving, and this crate is that serving layer, built on the
//! standard library alone:
//!
//! * [`snapshot`] — the served model ([`ModelSnapshot`]): the trained
//!   state as one compact CSR arena ([`cdim_core::CompactSelector`]),
//!   persisted verbatim in a versioned, checksummed binary format;
//! * [`service`] — [`InfluenceService`], a thread-safe query engine
//!   answering top-k-seed, spread and marginal-gain queries with an LRU
//!   answer cache and atomic zero-downtime snapshot hot-swap;
//! * [`protocol`] — the length-prefixed request/response wire format,
//!   including the incremental [`protocol::FrameDecoder`] for
//!   nonblocking streams;
//! * [`reactor`] — the readiness-driven event loop (`epoll(7)` via
//!   [`cdim_util::poll`], so the crate builds on Linux only): one thread
//!   multiplexing every connection, pipelined in-order responses,
//!   per-connection backpressure, and per-tick query batching through a
//!   small worker pool; [`spawn`]/[`spawn_with`] start it, the only TCP
//!   frontend;
//! * [`client`] — a blocking [`QueryClient`] for the protocol.
//!
//! ```no_run
//! use cdim_serve::{InfluenceService, ModelSnapshot, QueryClient};
//! use std::sync::Arc;
//!
//! let snapshot = ModelSnapshot::load(std::path::Path::new("model.snap"))?;
//! let service = Arc::new(InfluenceService::new(snapshot, 1024));
//! let server = cdim_serve::spawn(service, "127.0.0.1:0")?;
//!
//! let mut client = QueryClient::connect(server.addr())?;
//! let (seeds, _gains) = client.top_k(50)?;
//! let sigma = client.spread(&seeds)?;
//! println!("predicted spread of the top-50 set: {sigma:.1}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("cdim-serve needs Linux: its reactor runs on epoll(7)");

mod codec;

pub mod client;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod snapshot;

pub use client::{ClientError, QueryClient};
pub use protocol::{FrameDecoder, Request, Response, ServiceInfo, StatsReply};
pub use reactor::{spawn, spawn_with, ServerConfig, ServerHandle};
pub use service::{Answer, InfluenceService, Query, QueryError, ServiceStats};
pub use snapshot::{ModelSnapshot, SnapshotError, SnapshotFormat};
