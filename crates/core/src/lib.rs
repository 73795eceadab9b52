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
//! * [`mod@scan`] — Algorithm 2 (one pass over the sorted log, truncation
//!   λ), writing the arena directly and returning it as the trained,
//!   seedless [`CompactSelector`];
//! * [`incremental`] — the contract, checks and error type of
//!   incremental retraining: [`CompactSelector::extend`] folds in an
//!   [`cdim_actionlog::ActionLogDelta`] (byte-identical to a full rescan)
//!   and [`CompactSelector::retract`] cuts off an expired action prefix
//!   (byte-identical to a scan of just the surviving window), both by
//!   splicing arena sections;
//! * [`celf`] — Algorithm 3, the one CELF driver, with [`MgMode`] for the
//!   pseudocode-gain ablation;
//! * [`compact`] — the UC/SC credit structures of §5.3 as one immutable
//!   CSR arena, and the model every caller selects and queries with: the
//!   same arena (the zero-copy v2 snapshot payload), seeds and SC entries
//!   included, and the
//!   [`OverlaySelector`], the one engine for Theorem-3 marginal gains and
//!   Lemma 2/3 seed commits (Algorithms 4–5). Its private submodules
//!   follow those roles: `compact` itself holds the arena format and
//!   [`CompactSelector`]'s accessors; `compact::rows` lays arenas out
//!   (the scan's merge, dumps, the `extend`/`retract` splices);
//!   `compact::validate` checks an untrusted arena on load;
//!   `compact::overlay` is the overlay, the sharded commit and the
//!   top-k session; `compact::replay` answers the commit-free σ_cd and
//!   gain queries;
//! * [`spread`] — exact σ_cd(S) evaluation for arbitrary seed sets (the
//!   spread-prediction experiments) and a [`cdim_maxim::SpreadOracle`]
//!   implementation;
//! * [`mod@reference`] — an intentionally naive reference implementation used
//!   to verify every optimized path, plus the hash-map engines the arena
//!   replaced (`scan_dump` for the scan, `CdSelector` for selection),
//!   kept as the tests' bitwise oracles, and the plain-data dumps that
//!   bridge them to the model;
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
mod telemetry;
#[cfg(test)]
mod testing;

pub use cdim_util::Parallelism;
pub use celf::MgMode;
pub use compact::{ActionView, CompactCounts, CompactSelector, OverlaySelector, TopKSession};
pub use incremental::ExtendError;
pub use model::{CdModel, CdModelConfig};
pub use policy::CreditPolicy;
pub use scan::{check_inputs, scan, scan_dags, scan_with, ScanError};
pub use spread::CdSpreadEvaluator;
