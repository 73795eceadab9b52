#![warn(missing_docs)]
//! The credit-distribution (CD) model — the paper's primary contribution.
//!
//! Instead of learning edge probabilities and Monte-Carlo-simulating a
//! propagation model, CD mines the action log directly (§4): when user `u`
//! performs action `a`, each potential influencer `v ∈ N_in(u, a)` receives
//! *direct credit* `γ_{v,u}(a)`, and credit flows transitively backward
//! through the propagation DAG (Eq 5). Aggregated over the log,
//!
//! ```text
//! κ_{S,u} = (1/A_u) Σ_a Γ_{S,u}(a)        (Eq 7)
//! σ_cd(S) = Σ_u κ_{S,u}                   (Eq 8)
//! ```
//!
//! plays the role of `Σ_u Pr[path(S, u) = 1]` (Eq 4). Influence
//! maximization under σ_cd is NP-hard (Theorem 1) but σ_cd is monotone and
//! submodular (Theorem 2), so CELF-style greedy gives the usual
//! (1 − 1/e)-approximation — with marginal gains computed *directly from
//! the log* via Theorem 3 in place of simulations.
//!
//! Modules:
//! * [`policy`] — direct-credit assignment: uniform `1/d_in(u,a)` and the
//!   time-aware Eq 9 (`infl(u)`, `τ_{v,u}`, exponential decay);
//! * [`store`] — the UC/SC credit structures of §5.3: the trained store
//!   is a CSR arena, the selector's working copy a hash map per action;
//! * [`mod@scan`] — Algorithm 2 (one pass over the sorted log, truncation
//!   λ), writing the arena directly;
//! * [`incremental`] — incremental retraining: extend a store with an
//!   [`cdim_actionlog::ActionLogDelta`] (byte-identical to a full rescan)
//!   or retract an expired action prefix (byte-identical to a scan of
//!   just the surviving window), both by splicing arena sections;
//! * [`celf`] — Algorithms 3–5 (CELF selection, Theorem-3 marginal gains,
//!   Lemma 2/3 incremental updates) on a hash-map working copy, for
//!   training-side selection and as the tests' oracle;
//! * [`compact`] — the arena's layout and the served model: the same
//!   arena (the zero-copy v2 snapshot payload), seeds and SC entries
//!   included, queried by an overlay engine answering bit-identically to
//!   the hash-map selector;
//! * [`spread`] — exact σ_cd(S) evaluation for arbitrary seed sets (the
//!   spread-prediction experiments) and a [`cdim_maxim::SpreadOracle`]
//!   implementation;
//! * [`mod@reference`] — an intentionally naive reference implementation used
//!   to verify every optimized path;
//! * [`model`] — a convenience facade bundling train → select → evaluate;
//! * `telemetry` — shard-level scan timing reported into the process-wide
//!   [`cdim_obs::MetricsRegistry::global`] registry (never touches the
//!   per-action kernel, so instrumentation cannot affect model bytes).

pub mod celf;
pub mod compact;
pub mod incremental;
pub mod model;
pub mod policy;
pub mod reference;
pub mod scan;
pub mod spread;
pub mod store;
mod telemetry;

pub use cdim_util::Parallelism;
pub use celf::{select_seeds, CdSelector, MgMode, SelectorDump};
pub use compact::{CompactCounts, CompactSelector, OverlaySelector, TopKSession};
pub use incremental::ExtendError;
pub use model::{CdModel, CdModelConfig};
pub use policy::CreditPolicy;
pub use scan::{scan, scan_with, ScanError};
pub use spread::CdSpreadEvaluator;
pub use store::{ActionView, CreditStore, CreditStoreDump};
