//! Evidence for "publish cost ∝ delta": on `flixster_large/8`, one
//! thread, for a range of delta fractions, the wall time of a full
//! rescan against the publish path `ModelSnapshot::extend`; and likewise
//! of a window-only rescan against `ModelSnapshot::retract` expiring the
//! same fraction. Every point is checked byte for byte against its
//! rescan; the timings (fastest of [`REPS`]) are printed as one table.
//!
//! Ignored by default (tens of seconds); run it with
//!
//! ```text
//! cargo test --release -p cdim-serve --test publish_cost -- --ignored --nocapture
//! ```

use cdim_actionlog::ActionLog;
use cdim_core::{scan_with, CreditPolicy, Parallelism};
use cdim_datagen::presets;
use cdim_serve::ModelSnapshot;
use cdim_util::Timer;

/// Fractions of the log's actions that arrive (or expire) as the delta.
const FRACTIONS: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50];

/// Timed repetitions per operation; the fastest is reported.
const REPS: usize = 3;

/// Fastest wall time of `f` over [`REPS`] runs, in milliseconds, and the
/// last run's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let t = Timer::start();
        let out = f();
        best = best.min(t.secs() * 1e3);
        last = Some(out);
    }
    (best, last.expect("REPS > 0"))
}

#[test]
#[ignore = "timing evidence; run with --release -- --ignored --nocapture"]
fn publish_and_retract_cost_track_the_delta() {
    let ds = presets::flixster_large().scaled_down(8).generate();
    let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
    let (lambda, par) = (0.001, Parallelism::single());
    let scan = |log: &ActionLog| scan_with(&ds.graph, log, &policy, lambda, par).unwrap();
    let n = ds.log.num_actions();
    let (rescan_ms, full_store) = fastest(|| scan(&ds.log));
    let full = ModelSnapshot::from_store(full_store.clone());
    let full_bytes = full.to_bytes();
    println!(
        "{}: {} users, {} actions, {} tuples, {} credit entries; 1 thread, ms, fastest of {REPS}",
        ds.name,
        ds.graph.num_nodes(),
        n,
        ds.log.num_tuples(),
        full_store.total_entries()
    );
    println!("full rescan: {rescan_ms:.1} ms");
    println!(
        "{:>6} {:>7} | {:>8} | {:>13} {:>8}",
        "delta", "actions", "extend", "window rescan", "retract"
    );
    for fraction in FRACTIONS {
        let k = ((n as f64 * fraction).round() as usize).clamp(1, n);

        // Append: the last k actions arrive on a model of the rest.
        let (prefix, delta) = ds.log.split_at_action(n - k);
        let base = ModelSnapshot::from_store(scan(&prefix));
        let (extend_ms, extended) =
            fastest(|| base.extend(&ds.graph, &delta, &policy, par).unwrap());
        assert!(extended.to_bytes() == full_bytes, "extend diverged at {fraction}");

        // Expire: the first k actions leave the full model.
        let (expired, window) = ds.log.split_off_prefix(k);
        let (window_ms, rescan) = fastest(|| scan(&window));
        let (retract_ms, snapshot) =
            fastest(|| full.retract(&ds.graph, &expired, &policy, par).unwrap());
        let want = ModelSnapshot::from_store(rescan).to_bytes();
        assert!(snapshot.to_bytes() == want, "retract diverged at {fraction}");

        println!(
            "{:>5.0}% {k:>7} | {extend_ms:>8.1} | {window_ms:>13.1} {retract_ms:>8.1}",
            fraction * 100.0
        );
    }
}
