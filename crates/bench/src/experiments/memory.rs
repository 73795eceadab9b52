//! bench-memory — hash-map working copy vs CSR arena footprint, snapshot start-up.
//!
//! Not a paper artifact: this measures the payoff of the compact model
//! ([`cdim_core::CompactSelector`]) and the zero-copy snapshot format.
//! For a sweep of store sizes we train the model, then record (a)
//! resident bytes per user for the hash-map working copy a
//! `CdSelector::new(store)` builds vs the seedless CSR arena the scan
//! writes, and (b) the file size and the wall time of
//! `ModelSnapshot::load` (mmap + validate). Equivalence is asserted
//! in-run: the arena must export the working copy's byte-identical
//! canonical dump, and the loaded snapshot must re-encode to the
//! in-memory model's bytes.
//!
//! The sweep lands machine-readably in `BENCH_memory.json` so CI can
//! track bytes/user and start-up latency across commits.

use crate::config::ExperimentScale;
use cdim_core::{scan_with, CdSelector, CompactSelector, CreditPolicy, Parallelism};
use cdim_datagen::presets;
use cdim_metrics::Table;
use cdim_serve::ModelSnapshot;
use cdim_util::{HeapSize, Timer};
use std::io::Write as _;

/// Extra dataset divisors on top of the scale's own, largest (smallest
/// store) first — three store sizes per sweep.
const SIZE_DIVISORS: [usize; 3] = [4, 2, 1];

/// How many loads to time; the minimum is reported (the steady-state
/// figure — the first load warms the page cache).
const LOAD_REPS: usize = 3;

/// Where the JSON record lands by default: `$CDIM_BENCH_JSON_MEMORY` if
/// set (CI points this at the workspace), otherwise the temp directory
/// (so plain `cargo test` runs never litter the repo).
fn json_path() -> std::path::PathBuf {
    match std::env::var_os("CDIM_BENCH_JSON_MEMORY") {
        Some(path) => path.into(),
        None => std::env::temp_dir().join("BENCH_memory.json"),
    }
}

/// One measured store size.
struct Run {
    users: usize,
    actions: usize,
    entries: usize,
    mutable_bytes: usize,
    compact_bytes: usize,
    file_bytes: u64,
    load_secs: f64,
}

/// Runs the sweep; the JSON lands at `$CDIM_BENCH_JSON_MEMORY` or, when
/// unset, `BENCH_memory.json` in the temp directory.
pub fn run(scale: ExperimentScale) {
    run_with_output(scale, &json_path());
}

/// Runs the sweep and writes the JSON record to `path` (the explicit-path
/// variant tests use — no process-global environment involved).
pub fn run_with_output(scale: ExperimentScale, path: &std::path::Path) {
    super::banner(
        "bench-memory — CSR arena vs a selector's hash-map working copy, snapshot start-up",
        "engineering artifact (not in the paper): scan-written arena + zero-copy snapshots",
        scale,
    );
    let lambda = 0.001;
    let par = scale.parallelism();
    let dir = std::env::temp_dir().join(format!("cdim_benchmem_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let mut table = Table::new(["users", "entries", "mutable", "compact", "ratio", "file", "load"]);
    let mut runs: Vec<Run> = Vec::new();
    for extra in SIZE_DIVISORS {
        let divisor = scale.dataset_divisor.saturating_mul(extra).max(1);
        let ds = presets::flixster_large().scaled_down(divisor).generate();
        let policy = CreditPolicy::time_aware(&ds.graph, &ds.log);
        let store = scan_with(&ds.graph, &ds.log, &policy, lambda, par).unwrap();
        let users = ds.graph.num_nodes();
        let actions = ds.log.num_actions();
        let entries = store.total_entries();

        // The mutable figure is the selector's hash-map working copy,
        // built from the arena (and shrunk to fit).
        let selector = CdSelector::new(store.clone());
        let mutable_bytes = selector.heap_bytes();
        let compact = CompactSelector::from_store(store.clone());
        let compact_bytes = compact.memory_bytes();
        assert!(
            compact.to_dump() == selector.dump(),
            "the arena diverged from the selector's working copy at divisor {divisor}"
        );
        drop(selector);

        let snapshot = ModelSnapshot::from_store(store);
        let path = dir.join(format!("model_{divisor}.snap"));
        snapshot.save(&path).unwrap();
        let file_bytes = std::fs::metadata(&path).unwrap().len();
        let (load_secs, loaded) = time_load(&path);
        // The loaded model must be the in-memory one, byte for byte.
        assert!(
            loaded.to_bytes() == snapshot.to_bytes(),
            "loaded snapshot re-encodes differently at divisor {divisor}"
        );

        let ratio = mutable_bytes as f64 / compact_bytes.max(1) as f64;
        table.row([
            users.to_string(),
            entries.to_string(),
            fmt_per_user(mutable_bytes, users),
            fmt_per_user(compact_bytes, users),
            format!("{ratio:.1}x"),
            cdim_util::mem::fmt_bytes(file_bytes as usize),
            format!("{load_secs:.4}s"),
        ]);
        runs.push(Run {
            users,
            actions,
            entries,
            mutable_bytes,
            compact_bytes,
            file_bytes,
            load_secs,
        });
    }
    println!("{table}");
    println!(
        "(equivalence checked: every arena exported the working copy's dump, every load \
         re-encoded byte-identically to the in-memory model)"
    );
    std::fs::remove_dir_all(&dir).ok();

    match write_json(path, lambda, par.effective(), &runs) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Loads `path` [`LOAD_REPS`] times and returns the fastest wall time
/// along with the last loaded snapshot.
fn time_load(path: &std::path::Path) -> (f64, ModelSnapshot) {
    let mut best = f64::INFINITY;
    let mut loaded = None;
    for _ in 0..LOAD_REPS {
        let t = Timer::start();
        let snapshot = ModelSnapshot::load(path).unwrap();
        best = best.min(t.secs());
        loaded = Some(snapshot);
    }
    (best, loaded.expect("LOAD_REPS > 0"))
}

/// `"1.2 MiB (123 B/user)"`-style cell.
fn fmt_per_user(bytes: usize, users: usize) -> String {
    format!(
        "{} ({} B/u)",
        cdim_util::mem::fmt_bytes(bytes),
        (bytes as f64 / users.max(1) as f64).round() as usize
    )
}

/// Hand-rolled JSON (the workspace has no serialization dependency).
fn write_json(
    path: &std::path::Path,
    lambda: f64,
    threads: usize,
    runs: &[Run],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"bench-memory\",\n");
    out.push_str("  \"dataset\": \"flixster_large\",\n");
    out.push_str(&format!("  \"lambda\": {lambda},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"host_cores\": {},\n", Parallelism::auto().effective()));
    out.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let ratio = run.mutable_bytes as f64 / run.compact_bytes.max(1) as f64;
        out.push_str(&format!(
            "    {{\"users\": {}, \"actions\": {}, \"entries\": {}, \
             \"mutable_bytes\": {}, \"compact_bytes\": {}, \"bytes_ratio\": {ratio:.3}, \
             \"mutable_bytes_per_user\": {:.1}, \"compact_bytes_per_user\": {:.1}, \
             \"file_bytes\": {}, \"load_secs\": {:.6}}}{comma}\n",
            run.users,
            run.actions,
            run.entries,
            run.mutable_bytes,
            run.compact_bytes,
            run.mutable_bytes as f64 / run.users.max(1) as f64,
            run.compact_bytes as f64 / run.users.max(1) as f64,
            run.file_bytes,
            run.load_secs,
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_record_is_parseable_shape() {
        let dir = std::env::temp_dir().join(format!("cdim_benchmem_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_memory.json");
        let runs = vec![
            Run {
                users: 1000,
                actions: 50,
                entries: 4000,
                mutable_bytes: 400_000,
                compact_bytes: 100_000,
                file_bytes: 110_000,
                load_secs: 0.001,
            },
            Run {
                users: 2000,
                actions: 100,
                entries: 9000,
                mutable_bytes: 900_000,
                compact_bytes: 220_000,
                file_bytes: 240_000,
                load_secs: 0.002,
            },
        ];
        write_json(&path, 0.001, 4, &runs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"bench-memory\""));
        assert!(text.contains("\"compact_bytes\": 100000"));
        assert!(text.contains("\"load_secs\": 0.001000"));
        // Crude structural sanity: balanced braces/brackets, no trailing
        // comma before a closer.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(!text.contains(",\n  ]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_sweep_runs_and_reports() {
        let dir = std::env::temp_dir().join(format!("cdim_benchmem_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_memory.json");
        let mut scale = ExperimentScale::quick();
        scale.dataset_divisor = scale.dataset_divisor.max(64);
        run_with_output(scale, &path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"runs\""));
        assert!(text.contains("\"bytes_ratio\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
