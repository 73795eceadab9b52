//! Input preparation (untimed, in its own process): generates the
//! workload's dataset from the run seed and writes every file the program
//! part reads — TSV graph and logs, the frozen v2 snapshot, the ingest
//! checkpoint, and the request streams.

use crate::plan::{Files, Plan, LAMBDA};
use crate::requests;
use cdim::actionlog::{storage, ActionLog};
use cdim::core::{scan_with, CreditPolicy};
use cdim::graph::DirectedGraph;
use cdim::ingest::checkpoint::Checkpoint;
use cdim::serve::{ModelSnapshot, SnapshotFormat};
use cdim::util::Parallelism;

/// Writes every input of `plan` into `files`.
pub fn prepare(plan: &Plan, files: &Files, threads: Parallelism) -> Result<(), String> {
    let mut spec = plan.spec;
    spec.cascades.actions = (spec.cascades.actions as f64 * plan.overgenerate).round() as usize;
    let dataset = spec.generate();
    let graph = dataset.graph;
    let log = match plan.target_entries {
        Some(target) => trim_to_entries(&graph, &dataset.log, target, threads)?,
        None => dataset.log,
    };
    let err = |what: &str, e: &dyn std::fmt::Display| format!("writing {what}: {e}");

    storage::save_graph(&graph, &files.graph()).map_err(|e| err("graph", &e))?;
    storage::save_action_log(&log, &files.log()).map_err(|e| err("log", &e))?;

    // Live: the log minus its tail, checkpointed as a follower would have
    // left it after reading exactly that prefix.
    let split =
        log.num_actions().checked_sub(plan.tail_actions()).filter(|&s| s > 0).ok_or_else(|| {
            format!(
                "{} actions cannot hold a {}-action tail",
                log.num_actions(),
                plan.tail_actions()
            )
        })?;
    let base = log.project_actions(&(0..split as u32).collect::<Vec<_>>());
    let tail = log.project_actions(&(split as u32..log.num_actions() as u32).collect::<Vec<_>>());
    storage::save_action_log(&base, &files.base_log()).map_err(|e| err("base log", &e))?;
    storage::save_action_log(&tail, &files.tail_log()).map_err(|e| err("tail log", &e))?;
    let base_policy = CreditPolicy::time_aware(&graph, &base);
    let base_store =
        scan_with(&graph, &base, &base_policy, LAMBDA, threads).map_err(|e| e.to_string())?;
    let base_text = std::fs::read_to_string(files.base_log()).map_err(|e| err("base log", &e))?;
    Checkpoint {
        snapshot: ModelSnapshot::from_store(base_store),
        offset: base_text.len() as u64,
        lines: base_text.lines().count() as u64,
        watermark: Some(base.external_id(split as u32 - 1)),
        window: Vec::new(),
    }
    .save(&files.checkpoint())
    .map_err(|e| err("checkpoint", &e))?;

    // Serve: the frozen model of the whole log.
    let policy = CreditPolicy::time_aware(&graph, &log);
    let store = scan_with(&graph, &log, &policy, LAMBDA, threads).map_err(|e| e.to_string())?;
    let entries = store.total_entries();
    ModelSnapshot::from_store(store)
        .freeze()
        .save_as(&files.model(), SnapshotFormat::V2)
        .map_err(|e| err("model", &e))?;

    let serve_mix = requests::generate(&log, plan.requests, true, plan.request_seed);
    requests::save(&serve_mix, &files.requests()).map_err(|e| err("requests", &e))?;
    let live_mix = requests::generate(&log, 4 * plan.requests, false, plan.request_seed ^ 1);
    requests::save(&live_mix, &files.live_requests()).map_err(|e| err("requests", &e))?;

    let shape = format!(
        "users {}\nactions {}\ntuples {}\nentries {}\nstream_tuples {}\n",
        log.num_users(),
        log.num_actions(),
        log.num_tuples(),
        entries,
        tail.num_tuples()
    );
    std::fs::write(files.shape(), shape).map_err(|e| err("shape", &e))
}

/// The shortest action prefix of `log` whose credit store reaches
/// `target` entries (measured with the prefix's own policy).
fn trim_to_entries(
    graph: &DirectedGraph,
    log: &ActionLog,
    target: usize,
    threads: Parallelism,
) -> Result<ActionLog, String> {
    let policy = CreditPolicy::time_aware(graph, log);
    let store = scan_with(graph, log, &policy, LAMBDA, threads).map_err(|e| e.to_string())?;
    let mut total = 0;
    let mut keep = Vec::new();
    for a in 0..log.num_actions() as u32 {
        if total >= target {
            break;
        }
        total += store.action(a).len();
        keep.push(a);
    }
    if total < target {
        return Err(format!(
            "generated log holds {total} credit entries, below the {target} target"
        ));
    }
    Ok(log.project_actions(&keep))
}

/// Reads a shape file written by [`prepare`] as `(key, value)` pairs.
pub fn read_shape(files: &Files) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(files.shape()).map_err(|e| e.to_string())?;
    text.lines()
        .map(|l| {
            let (k, v) = l.split_once(' ').ok_or("bad shape line")?;
            Ok((k.to_string(), v.parse().map_err(|_| "bad shape value")?))
        })
        .collect()
}

/// The tail log's lines grouped by action, in file order: what the live
/// stream appends, one action at a time.
pub fn tail_actions(files: &Files) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(files.tail_log()).map_err(|e| e.to_string())?;
    let mut actions: Vec<String> = Vec::new();
    let mut current: Option<&str> = None;
    for line in text.lines() {
        let action = line.split('\t').nth(1).ok_or("bad tail line")?;
        if current != Some(action) {
            actions.push(String::new());
            current = Some(action);
        }
        let last = actions.last_mut().expect("pushed above");
        last.push_str(line);
        last.push('\n');
    }
    Ok(actions)
}
