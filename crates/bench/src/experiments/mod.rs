//! One module per paper artifact. The README's "Running the paper
//! experiments" lists their ids.

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table4;

use crate::config::ExperimentScale;

/// All experiment ids, in paper order (ablations last).
pub const ALL_IDS: [&str; 15] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table4",
    "ablate-credit",
    "ablate-celf",
    "ablate-mg",
    "all",
];

/// Dispatches one experiment by id; returns false for unknown ids.
pub fn run(id: &str, scale: ExperimentScale) -> bool {
    match id {
        "table1" => table1::run(scale),
        "table2" => table2::run(scale),
        "fig2" => fig2::run(scale),
        "fig3" => fig3::run(scale),
        "fig4" => fig4::run(scale),
        "fig5" => fig5::run(scale),
        "fig6" => fig6::run(scale),
        "fig7" => fig7::run(scale),
        "fig8" => fig8::run(scale),
        "fig9" => fig9::run(scale),
        "table4" => table4::run(scale),
        "ablate-credit" => ablations::credit_policy(scale),
        "ablate-celf" => ablations::celf_vs_greedy(scale),
        "ablate-mg" => ablations::mg_formula(scale),
        "all" => {
            for id in ALL_IDS.iter().filter(|&&i| i != "all") {
                run(id, scale);
            }
        }
        _ => return false,
    }
    true
}

/// Prints the standard experiment banner.
pub(crate) fn banner(title: &str, paper_ref: &str, scale: ExperimentScale) {
    println!();
    println!("=== {title} ===");
    println!("paper artifact: {paper_ref}");
    println!("{}", scale.describe());
    println!();
}

/// First `k` elements of a seed list (selection order is greedy order, so
/// a prefix is exactly the budget-`k` selection).
pub(crate) fn prefix(seeds: &[u32], k: usize) -> &[u32] {
    &seeds[..k.min(seeds.len())]
}

/// The k-grid used by the sweep figures (1, then multiples of k/10).
pub(crate) fn k_grid(k: usize) -> Vec<usize> {
    let step = (k / 10).max(1);
    let mut grid = vec![1];
    let mut v = step;
    while v < k {
        if v > 1 {
            grid.push(v);
        }
        v += step;
    }
    grid.push(k);
    grid.dedup();
    grid
}

/// Picks a histogram bin width that yields roughly `target_bins` bins.
pub(crate) fn auto_bin_width(max_actual: f64, target_bins: usize) -> usize {
    let raw = (max_actual / target_bins.max(1) as f64).max(1.0);
    // Round to 1/2/5 × 10^k.
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let nice = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    (nice * mag) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_grid_covers_endpoints() {
        let g = k_grid(50);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 50);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn k_grid_tiny() {
        assert_eq!(k_grid(1), vec![1]);
        assert_eq!(k_grid(2), vec![1, 2]);
    }

    #[test]
    fn bin_width_is_nice() {
        assert_eq!(auto_bin_width(800.0, 8), 100);
        assert_eq!(auto_bin_width(160.0, 8), 20);
        assert_eq!(auto_bin_width(7.0, 8), 1);
    }

    #[test]
    fn unknown_id_is_rejected() {
        assert!(!run("nonsense", ExperimentScale::quick()));
    }
}
