//! End-to-end pipeline tests through the public facade.

use cdim::core::reference::dump_of;
use cdim::prelude::*;

fn dataset() -> Dataset {
    cdim::datagen::presets::tiny().generate()
}

#[test]
fn full_pipeline_train_select_predict() {
    let ds = dataset();
    let split = train_test_split(&ds.log, 5);
    assert!(split.train.num_actions() > split.test.num_actions());

    let model = CdModel::train(&ds.graph, &split.train, CdModelConfig::default());
    let selection = model.select(5);
    assert_eq!(selection.seeds.len(), 5);

    // Gains are non-increasing (submodularity surfaced through greedy).
    for w in selection.marginal_gains.windows(2) {
        assert!(w[0] >= w[1] - 1e-9, "gains must not increase: {w:?}");
    }

    // Every seed actually appears in the training log.
    for &s in &selection.seeds {
        assert!(split.train.actions_performed_by(s) > 0);
    }

    // Spread prediction works for arbitrary sets, and is monotone.
    let s1 = model.spread(&selection.seeds[..1]);
    let s5 = model.spread(&selection.seeds);
    assert!(s5 >= s1);
}

#[test]
fn cd_selection_equals_generic_greedy_on_exact_oracle() {
    // The specialized Algorithm 3 must agree with generic greedy over the
    // exact σ_cd oracle (λ = 0) on real generated data, not just on the
    // hand-built unit-test instances.
    let ds = dataset();
    let policy = CreditPolicy::Uniform;
    let store = scan(&ds.graph, &ds.log, &policy, 0.0).unwrap();
    let cd = store.overlay().select(4);

    let dags = PropagationArena::build(&ds.log, &ds.graph, ds.log.actions());
    let evaluator = CdSpreadEvaluator::build(&dags, &policy);
    let candidates: Vec<u32> =
        (0..ds.graph.num_nodes() as u32).filter(|&u| ds.log.actions_performed_by(u) > 0).collect();
    let greedy = cdim::maxim::greedy::greedy_select_from(&evaluator, 4, &candidates);

    let cd_sigma = evaluator.spread(&cd.seeds);
    let greedy_sigma = evaluator.spread(&greedy.seeds);
    assert!((cd_sigma - greedy_sigma).abs() < 1e-9, "cd {cd_sigma} vs greedy {greedy_sigma}");
}

#[test]
fn parallel_scan_is_deterministic_on_generated_data() {
    // The facade-level version of the pipeline guarantee: on a realistic
    // generated dataset, every thread budget produces the same canonical
    // dump — the property that makes `--threads` a pure speed knob.
    let ds = dataset();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    for lambda in [0.0, 0.001] {
        let dump = |par| dump_of(&scan_with(&ds.graph, &ds.log, &policy, lambda, par).unwrap());
        let baseline = dump(Parallelism::single());
        for threads in [2usize, 3, 8] {
            assert!(
                dump(Parallelism::fixed(threads)) == baseline,
                "threads {threads}, lambda {lambda}"
            );
        }
        // The auto default is the same scan, so it obeys the same law.
        let auto = dump_of(&scan(&ds.graph, &ds.log, &policy, lambda).unwrap());
        assert!(auto == baseline, "auto parallelism diverged at lambda {lambda}");
    }
}

#[test]
fn truncation_trades_accuracy_for_memory_monotonically() {
    let ds = dataset();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let mut prev_entries = usize::MAX;
    for lambda in [0.0, 0.0001, 0.001, 0.01, 0.1] {
        let store = scan(&ds.graph, &ds.log, &policy, lambda).unwrap();
        assert!(store.total_entries() <= prev_entries, "entries must shrink as λ grows");
        prev_entries = store.total_entries();
    }
}

#[test]
fn mc_estimators_run_through_facade() {
    let ds = dataset();
    let em = EmLearner::new(&ds.graph, &ds.log).learn(EmConfig::default()).0;
    let est = MonteCarloEstimator::new(IcModel::new(&ds.graph, &em), McConfig::quick(200));
    let spread = est.spread(&[0, 1, 2]);
    assert!(spread >= 0.0);

    let weights = learn_lt_weights(&ds.graph, &ds.log);
    let lt = MonteCarloEstimator::new(LtModel::new(&ds.graph, &weights), McConfig::quick(200));
    assert!(lt.spread(&[0, 1, 2]) >= 3.0 - 1e-9);
}

#[test]
fn celf_and_greedy_agree_through_facade() {
    let ds = dataset();
    let dags = PropagationArena::build(&ds.log, &ds.graph, ds.log.actions());
    let evaluator = CdSpreadEvaluator::build(&dags, &CreditPolicy::Uniform);
    let g = greedy_select(&evaluator, 3);
    let c = celf_select(&evaluator, 3);
    assert_eq!(g.seeds, c.seeds);
    assert!(c.evaluations <= g.evaluations);
}
