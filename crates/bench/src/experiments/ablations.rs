//! Ablations of three design choices: the direct-credit policy, CELF's
//! lazy evaluation, and the marginal-gain formula.

use crate::config::ExperimentScale;
use crate::methods::Workbench;
use cdim_actionlog::PropagationArena;
use cdim_core::model::PolicyKind;
use cdim_core::{scan_with, CdModel, CdModelConfig, CdSpreadEvaluator, CreditPolicy, MgMode};
use cdim_datagen::presets;
use cdim_learning::TemporalModel;
use cdim_maxim::{celf_select, greedy_select};
use cdim_metrics::{intersection_size, rmse, Table};

/// Uniform (1/d_in) vs time-aware (Eq 9) direct credit.
pub fn credit_policy(scale: ExperimentScale) {
    super::banner(
        "Ablation — direct-credit policy: uniform vs time-aware (Eq 9)",
        "§4 'Assigning Direct Credit' motivates Eq 9 over the uniform split",
        scale,
    );
    let wb = Workbench::prepare(presets::flixster_small(), scale);
    let graph = &wb.dataset.graph;
    let k = scale.k;

    let uniform = CdModel::train(
        graph,
        &wb.split.train,
        CdModelConfig {
            policy: PolicyKind::Uniform,
            lambda: 0.001,
            parallelism: scale.parallelism(),
        },
    );
    let time_aware = &wb.cd; // the workbench default

    let traces = wb.test_traces();
    let pairs = |m: &CdModel| -> Vec<(f64, f64)> {
        traces.iter().map(|t| (t.actual, m.spread(&t.initiators))).collect()
    };
    let uni_rmse = rmse(&pairs(&uniform));
    let ta_rmse = rmse(&pairs(time_aware));

    let uni_seeds = uniform.select(k).seeds;
    let ta_seeds = time_aware.select(k).seeds;
    let overlap = intersection_size(&uni_seeds, &ta_seeds);

    let mut table = Table::new(["policy", "prediction RMSE", "seed overlap with other"]);
    table.row(["uniform 1/d_in".to_string(), format!("{uni_rmse:.1}"), format!("{overlap}/{k}")]);
    table.row(["time-aware Eq 9".to_string(), format!("{ta_rmse:.1}"), format!("{overlap}/{k}")]);
    println!("{table}");
    println!(
        "time-aware credit {} prediction error ({:.1} vs {:.1}); policies agree on {}/{k} seeds\n",
        if ta_rmse <= uni_rmse { "reduces" } else { "does not reduce (investigate)" },
        ta_rmse,
        uni_rmse,
        overlap
    );
}

/// CELF vs plain greedy, both over the exact σ_cd oracle.
pub fn celf_vs_greedy(scale: ExperimentScale) {
    super::banner(
        "Ablation — CELF vs plain greedy (exact σ_cd oracle)",
        "§5.3 adopts CELF; this quantifies the evaluation savings",
        scale,
    );
    // Plain greedy is O(n·k) spread evaluations — shrink the instance.
    let spec = presets::flixster_small().scaled_down(4.max(scale.dataset_divisor));
    let ds = spec.generate();
    let dags = PropagationArena::build(&ds.log, &ds.graph, ds.log.actions());
    let evaluator =
        CdSpreadEvaluator::build(&dags, &CreditPolicy::TimeAware(TemporalModel::learn(&dags)));
    let k = scale.k.min(10);

    let candidates: Vec<u32> =
        (0..ds.graph.num_nodes() as u32).filter(|&u| ds.log.actions_performed_by(u) > 0).collect();
    let greedy = cdim_maxim::greedy::greedy_select_from(&evaluator, k, &candidates);
    let celf = cdim_maxim::celf::celf_select_from(&evaluator, k, &candidates);

    let mut table = Table::new(["algorithm", "seeds", "spread evals", "σ_cd(seeds)"]);
    table.row([
        "greedy".to_string(),
        format!("{:?}", &greedy.seeds[..k.min(5)]),
        greedy.evaluations.to_string(),
        format!("{:.1}", evaluator.spread(&greedy.seeds)),
    ]);
    table.row([
        "celf".to_string(),
        format!("{:?}", &celf.seeds[..k.min(5)]),
        celf.evaluations.to_string(),
        format!("{:.1}", evaluator.spread(&celf.seeds)),
    ]);
    println!("{table}");
    println!(
        "CELF used {:.1}x fewer evaluations with identical spread\n",
        greedy.evaluations as f64 / celf.evaluations.max(1) as f64
    );
    // Both must achieve the same spread (they optimize the same function).
    let gs = evaluator.spread(&greedy.seeds);
    let cs = evaluator.spread(&celf.seeds);
    assert!((gs - cs).abs() < 1e-6, "greedy {gs} vs celf {cs}");

    // Keep the generic-greedy import exercised even at tiny scales.
    let _ = greedy_select(&evaluator, 1);
    let _ = celf_select(&evaluator, 1);
}

/// Theorem-3-faithful marginal gain vs the literal Algorithm-4 pseudocode.
pub fn mg_formula(scale: ExperimentScale) {
    super::banner(
        "Ablation — marginal gain: Theorem 3 vs Algorithm-4 pseudocode",
        "Theorem 3 vs Algorithm 4 (pseudocode omits the self term for non-influencing actions)",
        scale,
    );
    let wb = Workbench::prepare(presets::flixster_small(), scale);
    let k = scale.k;
    let policy = CreditPolicy::time_aware(&wb.dataset.graph, &wb.split.train);
    let model =
        scan_with(&wb.dataset.graph, &wb.split.train, &policy, 0.001, scale.parallelism()).unwrap();

    let theorem3 = model.overlay().select_with_mode(k, MgMode::Theorem3);
    let pseudo = model.overlay().select_with_mode(k, MgMode::Pseudocode);
    let overlap = intersection_size(&theorem3.seeds, &pseudo.seeds);

    let mut table = Table::new(["variant", "σ_cd(seeds)", "overlap"]);
    table.row([
        "Theorem 3".to_string(),
        format!("{:.1}", wb.cd.spread(&theorem3.seeds)),
        format!("{overlap}/{k}"),
    ]);
    table.row([
        "pseudocode".to_string(),
        format!("{:.1}", wb.cd.spread(&pseudo.seeds)),
        format!("{overlap}/{k}"),
    ]);
    println!("{table}");
    println!(
        "the two variants agree on {overlap}/{k} seeds; the self-term correction \
         matters only for users who rarely influence others\n"
    );
}
