#![warn(missing_docs)]
//! Shared low-level utilities for the `cdim` workspace.
//!
//! This crate deliberately has no dependencies. It provides:
//!
//! * [`hash`] — an FxHash-style hasher plus the [`FxHashMap`] alias.
//!   Integer-keyed maps sit on the hot path of the credit-scan and
//!   of every learner, where SipHash is measurably slower.
//! * [`rng`] — a deterministic xoshiro256\*\* PRNG with the handful of
//!   distributions the workspace needs. Experiments must be reproducible
//!   bit-for-bit across platforms, which rules out `thread_rng`-style
//!   nondeterminism in library code.
//! * [`ord`] — a total-order `f64` wrapper for heaps and sorting.
//! * [`topk`] — selection of the k largest items by a float key.
//! * [`mem`] — coarse heap-size accounting used by the scalability
//!   experiments (Fig 8, Table 4 report memory), and a safe cache
//!   prefetch hint for the query engine's row walks.
//! * [`timer`] — a tiny stopwatch for the runtime experiments.
//! * [`lru`] — an O(1) least-recently-used cache (the query service's
//!   answer cache).
//! * [`checksum`] — CRC-32C for the snapshot and checkpoint trailers.
//! * [`bytes`] — 8-byte-aligned buffers (owned or `mmap`-backed) and
//!   checked byte-reinterpretation helpers, the substrate of the
//!   zero-copy v2 snapshot format.
//! * [`pool`] — the scoped worker pool: [`Parallelism`] plus
//!   deterministic `parallel_map` primitives every parallel stage (credit
//!   scan, Monte-Carlo estimation) is built on.
//! * [`poll`] — readiness polling over raw `epoll` (Linux only) plus a
//!   self-pipe waker, the substrate of the serving reactor.

pub mod bytes;
pub mod checksum;
pub mod hash;
pub mod lru;
pub mod mem;
pub mod ord;
#[cfg(target_os = "linux")]
pub mod poll;
pub mod pool;
pub mod rng;
pub mod timer;
pub mod topk;

pub use bytes::AlignedBuf;
pub use hash::{FxBuildHasher, FxHashMap};
pub use lru::LruCache;
pub use mem::HeapSize;
pub use ord::OrdF64;
pub use pool::{parallel_map_shards, Parallelism};
pub use rng::Rng;
pub use timer::{monotonic_ns, Timer};
