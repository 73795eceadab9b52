//! Fig 7 — running-time comparison: IC/LT (MC + CELF) vs CD.
//!
//! Paper shape (Flixster_Small, k = 50): IC-greedy 40 h, LT-greedy 25 h,
//! CD 3 minutes — orders of magnitude. We run the MC baselines with far
//! fewer simulations than the paper's 10,000 (the knob is printed), so the
//! absolute gap here *understates* the paper's gap roughly by the
//! simulation ratio; the ordering and the orders-of-magnitude shape are
//! what must hold.

use crate::config::ExperimentScale;
use crate::methods::Workbench;
use cdim_core::{scan_with, CreditPolicy};
use cdim_datagen::presets;
use cdim_metrics::Table;
use cdim_util::Timer;

/// Prints selection time (seconds) vs k for the three models.
pub fn run(scale: ExperimentScale) {
    super::banner(
        "Fig 7 — running time to select k seeds",
        "Fig 7 (paper: IC 40h / LT 25h / CD 3min at k=50 on Flixster_Small)",
        scale,
    );
    let wb = Workbench::prepare(presets::flixster_small(), scale);
    // Each grid point re-runs full selections for all three models; keep
    // the grid sparse (the paper's Fig 7 x-axis is equally coarse in
    // effect — the curves are near-affine in k because the CELF initial
    // pass dominates).
    let grid: Vec<usize> = [1, scale.k / 5, scale.k / 2, scale.k]
        .into_iter()
        .filter(|&k| k >= 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut table = Table::new(["k", "IC (s)", "LT (s)", "CD (s)", "IC/CD", "LT/CD"]);
    let mut last_ratio = (0.0, 0.0);
    for &k in &grid {
        let t = Timer::start();
        let _ = wb.select_ic_mc(&wb.em, k);
        let ic_s = t.secs();

        let t = Timer::start();
        let _ = wb.select_lt_mc(k);
        let lt_s = t.secs();

        // CD time includes the scan, as the paper's reported time does.
        let t = Timer::start();
        let policy = CreditPolicy::time_aware(&wb.dataset.graph, &wb.split.train);
        let store =
            scan_with(&wb.dataset.graph, &wb.split.train, &policy, 0.001, scale.parallelism())
                .unwrap();
        let _ = store.overlay().select(k);
        let cd_s = t.secs();

        last_ratio = (ic_s / cd_s.max(1e-9), lt_s / cd_s.max(1e-9));
        table.row([
            k.to_string(),
            format!("{ic_s:.2}"),
            format!("{lt_s:.2}"),
            // Milliseconds: a `--quick` CD run takes a few of them.
            format!("{cd_s:.3}"),
            format!("{:.0}x", last_ratio.0),
            format!("{:.0}x", last_ratio.1),
        ]);
    }
    println!("{table}");
    println!(
        "shape check: at k = {}, CD is {:.0}x faster than IC and {:.0}x faster than LT\n\
         (with {} sims instead of the paper's 10,000 — multiply the MC columns by ~{:.0}\n\
         to estimate paper-scale times; CD's time is simulation-free and unaffected)",
        grid.last().unwrap(),
        last_ratio.0,
        last_ratio.1,
        scale.mc_simulations,
        10_000.0 / scale.mc_simulations as f64,
    );
}
