#![warn(missing_docs)]
//! Unified observability for the `cdim` workspace.
//!
//! Every subsystem — the credit scan, the serving frontend, the ingest
//! driver — reports into one [`MetricsRegistry`] of named metrics, and
//! operators read it back through one of two surfaces: wire op 6
//! (`Metrics`) on the query protocol, or the Prometheus text endpoint
//! served by [`MetricsServer`]. Per-request causality comes from the
//! [`trace`] flight recorder, read by wire op 7 (`TraceDump`). The crate
//! is std-only with zero external dependencies.
//!
//! * [`metric`] — [`Counter`] (relaxed atomic adds), [`Gauge`] (f64 bits
//!   in an `AtomicU64`), and [`Info`] (a text annotation such as the last
//!   quarantine reason).
//! * [`hist`] — [`Histogram`], a log-linear latency histogram with
//!   wait-free recording and exact-integer internals, read out as
//!   p50/p90/p99/max via
//!   [`HistogramSummary`]; [`SpanGuard`] is the RAII scoped timer.
//! * [`registry`] — [`MetricsRegistry`] (register-or-fetch by name,
//!   deterministic sorted [`RegistryDump`] snapshots, and the process-wide
//!   [`MetricsRegistry::global`] instance).
//! * [`expo`] — [`render_prometheus`], text exposition format 0.0.4.
//! * [`http`] — [`MetricsServer`], a minimal std TCP scrape endpoint.
//! * [`trace`] — [`Tracer`], the request-scoped span flight recorder
//!   (lock-free sharded ring of recent spans + slow-query log), read out
//!   as a [`TraceDump`] by wire op 7.
//!
//! # Span-guard usage
//!
//! ```
//! use cdim_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let hist = registry.histogram("cdim_work_seconds");
//! {
//!     let _span = hist.start_span();
//!     // ... timed section ...
//! } // drop records the elapsed seconds
//! assert_eq!(hist.count(), 1);
//! ```

pub mod expo;
pub mod hist;
pub mod http;
pub mod metric;
pub mod registry;
pub mod trace;

pub use expo::render_prometheus;
pub use hist::{Histogram, HistogramSummary, SpanGuard};
pub use http::MetricsServer;
pub use metric::{Counter, Gauge, Info};
pub use registry::{MetricsRegistry, RegistryDump};
pub use trace::{ActiveSpan, SlowTraceDump, SpanDump, Stage, TraceCtx, TraceDump, Tracer};
