//! The library facade and serving agree on one trained model:
//! `CdModel::select(25)` — a fresh CELF run on an overlay of the scanned
//! store — returns the seeds, evaluation count and gain bits of
//! `ModelSnapshot::from_store(..).top_k(25)`, the served model's resumable
//! top-k session on the same arena.
//!
//! The cases are the golden presets × policy × λ of `cdim-core`'s
//! `overlay_kernel` suite.

use cdim_core::model::PolicyKind;
use cdim_core::{CdModel, CdModelConfig, Parallelism};
use cdim_datagen::presets;
use cdim_serve::ModelSnapshot;

/// Top-k budget of the answer check.
const K: usize = 25;

#[test]
fn model_selection_equals_the_served_top_k_bit_for_bit() {
    for preset in ["tiny", "flixster_small_div8"] {
        let ds = match preset {
            "tiny" => presets::tiny(),
            _ => presets::flixster_small().scaled_down(8),
        }
        .generate();
        for policy in [PolicyKind::Uniform, PolicyKind::TimeAware] {
            for lambda in [0.0, 0.001] {
                let case = format!("{preset} {policy:?} lambda={lambda}");
                let config = CdModelConfig { policy, lambda, parallelism: Parallelism::fixed(2) };
                let model = CdModel::train(&ds.graph, &ds.log, config);
                let trained = model.select(K);
                let served = ModelSnapshot::from_store(model.store().clone()).top_k(K);
                assert_eq!(trained.seeds, served.seeds, "{case}: seeds");
                assert_eq!(trained.evaluations, served.evaluations, "{case}: evaluations");
                let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&trained.marginal_gains),
                    bits(&served.marginal_gains),
                    "{case}: gain bits"
                );
            }
        }
    }
}
