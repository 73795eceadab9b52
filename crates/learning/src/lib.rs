#![warn(missing_docs)]
//! Learning influence parameters from propagation traces.
//!
//! §3 of the paper compares five ways of putting probabilities on edges:
//!
//! * **UN** — every edge gets `p = 0.01` ([`assign::uniform`]);
//! * **TV** — trivalency: uniform draw from `{0.1, 0.01, 0.001}`
//!   ([`assign::trivalency`]);
//! * **WC** — weighted cascade: `p(v,u) = 1 / in_degree(u)`
//!   ([`assign::weighted_cascade`]);
//! * **EM** — probabilities learned from the training traces with the
//!   EM method of Saito et al. ([`em::EmLearner`]);
//! * **PT** — EM probabilities perturbed by ±20% noise
//!   ([`assign::perturb`]).
//!
//! For the LT model the paper learns weights `p(v,u) = A_{v2u} / N`
//! ([`ltweights::learn_lt_weights`]), and for the credit-distribution
//! model's time-aware direct credit (Eq 9) it learns the per-edge mean
//! propagation delay `τ_{v,u}` and per-user influenceability `infl(u)`
//! ([`temporal::TemporalModel`]).

pub mod assign;
pub mod em;
pub mod ltweights;
pub mod temporal;

pub use assign::{perturb, trivalency, uniform, weighted_cascade};
pub use em::{EmConfig, EmLearner};
pub use ltweights::{learn_lt_weights, lt_weights_of};
pub use temporal::TemporalModel;
