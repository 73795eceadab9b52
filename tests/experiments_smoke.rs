//! Every experiment runner completes at smoke scale — protects the whole
//! harness (and thus every table/figure) from bit-rot.

use cdim_bench::{experiments, ExperimentScale};

fn smoke() -> ExperimentScale {
    // Even smaller than `quick`: these must run inside `cargo test`.
    ExperimentScale {
        dataset_divisor: 16,
        mc_simulations: 20,
        k: 5,
        max_test_traces: 20,
        threads: 2,
    }
}

#[test]
fn table_experiments_run() {
    assert!(experiments::run("table1", smoke()));
    assert!(experiments::run("table2", smoke()));
    assert!(experiments::run("table4", smoke()));
}

#[test]
fn accuracy_figures_run() {
    assert!(experiments::run("fig2", smoke()));
    assert!(experiments::run("fig3", smoke()));
    assert!(experiments::run("fig4", smoke()));
}

#[test]
fn selection_figures_run() {
    assert!(experiments::run("fig5", smoke()));
    assert!(experiments::run("fig6", smoke()));
    assert!(experiments::run("fig7", smoke()));
}

#[test]
fn scalability_figures_run() {
    assert!(experiments::run("fig8", smoke()));
    assert!(experiments::run("fig9", smoke()));
}

#[test]
fn ablations_run() {
    assert!(experiments::run("ablate-credit", smoke()));
    assert!(experiments::run("ablate-celf", smoke()));
    assert!(experiments::run("ablate-mg", smoke()));
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(!experiments::run("not-an-experiment", smoke()));
}
