//! Scalability of the one-pass scan (Fig 8 in example form).
//!
//! Scans growing slices of a large action log and reports throughput,
//! credit-store size and seed-selection time.
//!
//! Paper artifact: Fig 8 (runtime and memory vs action-log size; the
//! one-pass scan of Algorithm 2 scales linearly in the log).
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use cdim::metrics::Table;
use cdim::prelude::*;
use cdim::util::mem::fmt_bytes;
use cdim::util::Timer;

fn main() {
    let dataset = cdim::datagen::presets::flixster_large().scaled_down(4).generate();
    println!(
        "dataset: {} users, {} edges, {} tuples total — scanning on {} cores",
        dataset.graph.num_nodes(),
        dataset.graph.num_edges(),
        dataset.log.num_tuples(),
        Parallelism::auto().effective()
    );

    let policy = CreditPolicy::time_aware(&dataset.graph, &dataset.log);
    let mut table =
        Table::new(["#tuples", "scan (s)", "tuples/s", "UC entries", "memory", "select k=25 (s)"]);
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let budget = (dataset.log.num_tuples() as f64 * fraction) as usize;
        let log = dataset.log.take_tuples(budget);

        let t = Timer::start();
        let store = scan(&dataset.graph, &log, &policy, 0.001).unwrap();
        let scan_s = t.secs();
        let entries = store.total_entries();
        let bytes = store.memory_bytes();

        let t = Timer::start();
        let selection = store.overlay().select(25);
        let select_s = t.secs();
        assert_eq!(selection.seeds.len(), 25);

        table.row([
            log.num_tuples().to_string(),
            format!("{scan_s:.2}"),
            format!("{:.0}", log.num_tuples() as f64 / scan_s.max(1e-9)),
            entries.to_string(),
            fmt_bytes(bytes),
            format!("{select_s:.2}"),
        ]);
    }
    println!("{table}");
    println!(
        "the scan is a single pass over the log — time and memory grow ~linearly\n\
         with the tuple count, and selection cost is independent of graph size."
    );

    // Credit assignment is independent across actions, so the scan shards
    // them over worker threads with bit-identical output for every thread
    // count; the budget is purely a speed knob.
    let mut table = Table::new(["threads", "scan (s)", "speedup"]);
    let mut base = 0.0;
    for threads in [1usize, 2, 4] {
        let t = Timer::start();
        let store =
            scan_with(&dataset.graph, &dataset.log, &policy, 0.001, Parallelism::fixed(threads))
                .unwrap();
        let secs = t.secs();
        assert!(store.total_entries() > 0);
        if threads == 1 {
            base = secs;
        }
        table.row([
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{:.2}x", base / secs.max(1e-9)),
        ]);
    }
    println!("{table}");
}
