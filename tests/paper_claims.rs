//! The paper's load-bearing claims, checked end-to-end on generated data.

use cdim::metrics::rmse;
use cdim::prelude::*;

fn dataset() -> Dataset {
    // Large enough for learning signal, small enough for CI.
    cdim::datagen::presets::flixster_small().scaled_down(8).generate()
}

/// §3: methods that learn probabilities from traces predict held-out
/// spread better than degree-driven assignment (WC).
#[test]
fn learned_probabilities_beat_weighted_cascade() {
    let ds = dataset();
    let split = train_test_split(&ds.log, 5);
    let em = EmLearner::new(&ds.graph, &split.train).learn(EmConfig::default()).0;
    let wc = cdim::learning::assign::weighted_cascade(&ds.graph);
    let mc = McConfig::quick(150);

    let mut pairs_em = Vec::new();
    let mut pairs_wc = Vec::new();
    let traces = PropagationArena::build(&split.test, &ds.graph, split.test.actions());
    for dag in traces.dags() {
        let initiators = dag.initiators();
        let actual = dag.len() as f64;
        pairs_em.push((
            actual,
            MonteCarloEstimator::new(IcModel::new(&ds.graph, &em), mc).spread(&initiators),
        ));
        pairs_wc.push((
            actual,
            MonteCarloEstimator::new(IcModel::new(&ds.graph, &wc), mc).spread(&initiators),
        ));
    }
    let (rmse_em, rmse_wc) = (rmse(&pairs_em), rmse(&pairs_wc));
    assert!(rmse_em < rmse_wc, "EM ({rmse_em:.1}) must beat WC ({rmse_wc:.1})");
}

/// §6 (Figs 3–4): the CD model predicts held-out spread at least as well
/// as the EM-fitted IC model.
#[test]
fn cd_predicts_at_least_as_well_as_ic_em() {
    let ds = dataset();
    let split = train_test_split(&ds.log, 5);
    let model = CdModel::train(&ds.graph, &split.train, CdModelConfig::default());
    let em = EmLearner::new(&ds.graph, &split.train).learn(EmConfig::default()).0;
    let mc = McConfig::quick(150);

    let mut pairs_cd = Vec::new();
    let mut pairs_ic = Vec::new();
    let traces = PropagationArena::build(&split.test, &ds.graph, split.test.actions());
    for dag in traces.dags() {
        let initiators = dag.initiators();
        let actual = dag.len() as f64;
        pairs_cd.push((actual, model.spread(&initiators)));
        pairs_ic.push((
            actual,
            MonteCarloEstimator::new(IcModel::new(&ds.graph, &em), mc).spread(&initiators),
        ));
    }
    let (rmse_cd, rmse_ic) = (rmse(&pairs_cd), rmse(&pairs_ic));
    // Allow a sliver of slack: at this miniature scale the two are close;
    // the full-scale experiments show the real gap.
    assert!(rmse_cd <= rmse_ic * 1.1, "CD ({rmse_cd:.1}) must not lose to IC+EM ({rmse_ic:.1})");
}

/// §5: σ_cd is monotone and submodular on generated data (Theorem 2),
/// checked through the public evaluator.
#[test]
fn sigma_cd_is_monotone_and_submodular_on_generated_data() {
    let ds = dataset();
    let dags = PropagationArena::build(&ds.log, &ds.graph, ds.log.actions());
    let eval =
        CdSpreadEvaluator::build(&dags, &CreditPolicy::TimeAware(TemporalModel::learn(&dags)));

    let active: Vec<u32> = (0..ds.graph.num_nodes() as u32)
        .filter(|&u| ds.log.actions_performed_by(u) > 0)
        .take(8)
        .collect();

    // Monotone along a growing chain.
    let mut prev = 0.0;
    for i in 0..active.len() {
        let s = eval.spread(&active[..=i]);
        assert!(s + 1e-9 >= prev, "monotonicity violated at {i}");
        prev = s;
    }

    // Submodular: marginal gain of x shrinks as the base set grows.
    let x = *active.last().unwrap();
    for i in 0..active.len() - 2 {
        let small = &active[..i];
        let large = &active[..i + 1];
        let gain = |base: &[u32]| {
            let mut with_x = base.to_vec();
            with_x.push(x);
            eval.spread(&with_x) - eval.spread(base)
        };
        assert!(gain(small) + 1e-9 >= gain(large), "submodularity violated at prefix {i}");
    }
}

/// §6 (Fig 5): CD chooses different seeds than the ad-hoc-probability IC
/// pipeline — the motivating observation of the whole paper.
#[test]
fn cd_seeds_differ_from_wc_ic_seeds() {
    let ds = dataset();
    let split = train_test_split(&ds.log, 5);
    let model = CdModel::train(&ds.graph, &split.train, CdModelConfig::default());
    let cd_seeds = model.select(5).seeds;

    let wc = cdim::learning::assign::weighted_cascade(&ds.graph);
    let est = MonteCarloEstimator::new(IcModel::new(&ds.graph, &wc), McConfig::quick(100));
    let wc_seeds = celf_select(&est, 5).seeds;

    let overlap = cdim::metrics::intersection_size(&cd_seeds, &wc_seeds);
    // At this miniature scale (≈200 users) the handful of genuinely
    // central users is found by everyone, so we only require the sets to
    // disagree; the full-scale fig5/table2 runs show near-disjointness.
    assert!(overlap < cd_seeds.len(), "CD {cd_seeds:?} vs WC-IC {wc_seeds:?} must not coincide");
}

/// The EM learner recovers the *planted* probabilities on well-observed
/// edges — the generator and learner are mutually consistent.
#[test]
fn em_recovers_planted_probabilities_on_well_observed_edges() {
    let ds = cdim::datagen::presets::tiny().generate();
    let learner = EmLearner::new(&ds.graph, &ds.log);
    let (learned, _) = learner.learn(EmConfig::default());

    let mut diffs = Vec::new();
    for u in 0..ds.graph.num_nodes() as u32 {
        for pos in ds.graph.in_range(u) {
            if learner.trials_at(pos) >= 30 {
                let v = ds.graph.in_sources()[pos];
                let out_pos = ds.graph.out_edge_position(v, u).unwrap();
                let truth = ds.truth.probs.out(out_pos);
                diffs.push((learned.in_view()[pos] - truth).abs());
            }
        }
    }
    assert!(diffs.len() >= 10, "need well-observed edges, got {}", diffs.len());
    let mean_abs: f64 = diffs.iter().sum::<f64>() / diffs.len() as f64;
    // Exogenous adoptions and per-action virality bias the estimates (by
    // design — that is the realistic misspecification), but EM must still
    // land in the right neighborhood on high-trial edges.
    assert!(mean_abs < 0.2, "mean |learned − planted| = {mean_abs}");
}
