//! Continuous-time cascade generation.
//!
//! Each action starts with a Zipf-sized set of initiators (sampled by
//! activity weight) and propagates as a continuous-time independent
//! cascade: when `u` activates at time `t`, each out-edge `(u, v)` fires
//! with the planted probability; on success `v` activates at
//! `t + Exp(mean_delay(u, v))` unless an earlier activation already won.
//! The emitted `(user, action, time)` tuples are exactly the action-log
//! format of §4 — with real time stamps, not IC rounds, so the EM
//! adaptation and the CD model's time decay both have something to learn.

use crate::groundtruth::{sample_user, GroundTruth};
use cdim_actionlog::{ActionLog, ActionLogBuilder};
use cdim_graph::{DirectedGraph, NodeId};
use cdim_util::rng::Zipf;
use cdim_util::{OrdF64, Rng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cascade-generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CascadeConfig {
    /// Number of actions (propagation traces) to generate.
    pub actions: usize,
    /// Zipf exponent for the initiator-count distribution.
    pub initiator_zipf_s: f64,
    /// Maximum number of initiators per action.
    pub max_initiators: usize,
    /// Hard cap on a single cascade's size (bounds generation cost).
    pub max_cascade_size: usize,
    /// Spacing between action start times (keeps actions disjoint in
    /// time; purely cosmetic since models treat actions independently).
    pub action_spacing: f64,
    /// Per-action virality spread: each action `a` draws a strength
    /// multiplier `s_a = exp(N(0, σ²) − σ²/2)` (mean 1) applied to every
    /// edge probability during its cascade. Real actions differ wildly in
    /// influence-proneness (Goyal et al., WSDM 2010) — a static per-edge
    /// IC probability cannot represent this, which is part of why
    /// trace-based prediction (CD) is more robust. `0` disables.
    pub virality_sigma: f64,
    /// Expected number of *exogenous* adopters per action (Poisson):
    /// users who perform the action without a network cause (media,
    /// offline influence). Real logs are full of these; they are the
    /// model misspecification that separates trace-calibrated predictors
    /// (CD) from propagation models fitted as if every adoption had a
    /// network explanation (§3's EM adaptation).
    pub exogenous_rate: f64,
    /// Time window after the action start within which exogenous adopters
    /// arrive.
    pub exogenous_window: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            actions: 1000,
            initiator_zipf_s: 1.6,
            max_initiators: 12,
            max_cascade_size: 2_000,
            action_spacing: 10_000.0,
            virality_sigma: 0.45,
            exogenous_rate: 1.0,
            exogenous_window: 25.0,
            seed: 7,
        }
    }
}

/// Generates an action log by simulating cascades over the planted
/// ground truth.
pub fn generate_cascades(
    graph: &DirectedGraph,
    truth: &GroundTruth,
    config: CascadeConfig,
) -> ActionLog {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut builder = ActionLogBuilder::new(graph.num_nodes());
    let cdf = truth.activity_cdf();
    let zipf = Zipf::new(config.max_initiators.max(1), config.initiator_zipf_s);

    // Per-user activation time for the current action; f64::INFINITY when
    // inactive. Epoch-reset via touched list.
    let mut activation = vec![f64::INFINITY; graph.num_nodes()];
    let mut touched: Vec<NodeId> = Vec::new();

    for a in 0..config.actions as u32 {
        for &t in &touched {
            activation[t as usize] = f64::INFINITY;
        }
        touched.clear();

        let t0 = a as f64 * config.action_spacing;
        let virality = if config.virality_sigma > 0.0 {
            let sigma = config.virality_sigma;
            rng.normal(-sigma * sigma / 2.0, sigma).exp()
        } else {
            1.0
        };
        let n_init = zipf.sample(&mut rng);
        // Tentative-activation-time priority queue (earliest first).
        let mut queue: BinaryHeap<(Reverse<OrdF64>, NodeId)> = BinaryHeap::new();
        for _ in 0..n_init {
            let u = sample_user(&cdf, &mut rng);
            let t = t0 + rng.range_f64(0.0, 1.0);
            if t < activation[u as usize] {
                if activation[u as usize].is_infinite() {
                    touched.push(u);
                }
                activation[u as usize] = t;
                queue.push((Reverse(OrdF64(t)), u));
            }
        }
        // Exogenous adopters: no network cause, arbitrary arrival within
        // the window. They still expose their own neighbors onward.
        for _ in 0..rng.poisson(config.exogenous_rate) {
            let u = sample_user(&cdf, &mut rng);
            let t = t0 + rng.range_f64(0.0, config.exogenous_window.max(1e-9));
            if t < activation[u as usize] {
                if activation[u as usize].is_infinite() {
                    touched.push(u);
                }
                activation[u as usize] = t;
                queue.push((Reverse(OrdF64(t)), u));
            }
        }

        let mut activated = 0usize;
        while let Some((Reverse(OrdF64(t)), u)) = queue.pop() {
            if t > activation[u as usize] {
                continue; // superseded by an earlier activation
            }
            builder.push(u, a, t);
            activated += 1;
            if activated >= config.max_cascade_size {
                break;
            }
            let range = graph.out_range(u);
            let targets = graph.out_targets();
            for pos in range {
                let v = targets[pos];
                if activation[v as usize] <= t {
                    continue; // already active earlier
                }
                if rng.bool((truth.probs.out(pos) * virality).min(1.0)) {
                    let tv = t + rng.exp(truth.mean_delay[pos]);
                    if tv < activation[v as usize] {
                        if activation[v as usize].is_infinite() {
                            touched.push(v);
                        }
                        activation[v as usize] = tv;
                        queue.push((Reverse(OrdF64(tv)), v));
                    }
                }
            }
        }
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphgen::{preferential_attachment, GraphGenConfig};
    use crate::groundtruth::GroundTruthConfig;
    use cdim_actionlog::PropagationArena;

    fn setup() -> (DirectedGraph, GroundTruth) {
        let g = preferential_attachment(GraphGenConfig {
            nodes: 300,
            attach: 6,
            reciprocity: 0.3,
            seed: 4,
        });
        let gt = GroundTruth::generate(&g, GroundTruthConfig::default());
        (g, gt)
    }

    #[test]
    fn generates_requested_actions() {
        let (g, gt) = setup();
        let log = generate_cascades(&g, &gt, CascadeConfig { actions: 200, ..Default::default() });
        assert_eq!(log.num_actions(), 200);
        assert!(log.num_tuples() >= 200, "each action has ≥1 initiator");
    }

    #[test]
    fn cascades_are_heavy_tailed() {
        let (g, gt) = setup();
        let log = generate_cascades(&g, &gt, CascadeConfig { actions: 400, ..Default::default() });
        let mut sizes: Vec<usize> = log.actions().map(|a| log.action_size(a)).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let median = sizes[sizes.len() / 2];
        assert!(sizes[0] >= 5 * median.max(1), "max {} vs median {median}", sizes[0]);
    }

    #[test]
    fn respects_cascade_cap() {
        let (g, gt) = setup();
        let log = generate_cascades(
            &g,
            &gt,
            CascadeConfig { actions: 100, max_cascade_size: 10, ..Default::default() },
        );
        for a in log.actions() {
            assert!(log.action_size(a) <= 10);
        }
    }

    #[test]
    fn timestamps_propagate_forward() {
        let (g, gt) = setup();
        let log = generate_cascades(&g, &gt, CascadeConfig { actions: 100, ..Default::default() });
        // Propagation DAG parents always precede children — guaranteed by
        // construction, but verify end-to-end through the real pipeline.
        let arena = PropagationArena::build(&log, &g, 0..20);
        for dag in arena.dags() {
            for i in 0..dag.len() {
                for &p in dag.parents_of(i) {
                    assert!(dag.time(p as usize) < dag.time(i));
                }
            }
        }
    }

    #[test]
    fn propagation_actually_happens_along_edges() {
        let (g, gt) = setup();
        let log = generate_cascades(&g, &gt, CascadeConfig { actions: 300, ..Default::default() });
        let arena = PropagationArena::build(&log, &g, log.actions());
        let with_parents: usize =
            arena.dags().map(|dag| (0..dag.len()).filter(|&i| dag.in_degree(i) > 0).count()).sum();
        assert!(with_parents > log.num_actions() / 2, "only {with_parents} influenced activations");
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, gt) = setup();
        let cfg = CascadeConfig { actions: 50, ..Default::default() };
        assert_eq!(generate_cascades(&g, &gt, cfg), generate_cascades(&g, &gt, cfg));
    }
}
