//! The train pipeline — what `cdim train` + `cdim select` do: TSV files →
//! `read_graph`/`read_action_log` → `CreditPolicy::time_aware` →
//! `scan_with` → `ModelSnapshot::freeze` → `save_as(V2)`, then
//! `ModelSnapshot::load` and `top_k(50)`.

use crate::measure::{Ctx, Mode, Rep};
use crate::plan::{Files, LAMBDA, SETUP_CYCLES, TOP_K};
use crate::requests::{self, Query};
use crate::stats::median;
use cdim::actionlog::{storage, ActionLog};
use cdim::core::{scan_with, CreditPolicy};
use cdim::graph::DirectedGraph;
use cdim::maxim::Selection;
use cdim::serve::{ModelSnapshot, SnapshotFormat};
use cdim::util::Parallelism;
use std::fs::File;

const MB: f64 = 1024.0 * 1024.0;

/// What a repetition leaves behind for the correctness check.
struct Trained {
    frozen: ModelSnapshot,
    loaded: ModelSnapshot,
    selection: Selection,
}

/// Runs the train pipeline; as the primary pipeline, checks that the
/// reloaded snapshot selects exactly what the in-memory model does.
pub fn run(ctx: &mut Ctx, mode: Mode) -> Result<Vec<Rep>, String> {
    let mut last: Option<Trained> = None;
    let reps = match mode {
        Mode::Primary => ctx.repeat(
            |c, _| {
                last = None;
                let (r, t) = rep(c)?;
                last = Some(t);
                Ok(r)
            },
            |_| true,
        )?,
        Mode::Probe => {
            let (r, t) = rep(ctx)?;
            last = Some(t);
            vec![r]
        }
    };
    let trained = last.expect("at least one repetition ran");
    if mode == Mode::Primary {
        ctx.mark_rss_peak();
        ctx.value("serve.resident_mb", trained.loaded.resident_bytes() as f64 / MB);
        if ctx.trace {
            model_probe(ctx, &trained.loaded)?;
        }
        let reference = trained.frozen.top_k(TOP_K);
        let bits = |s: &Selection| s.marginal_gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        ctx.check(
            format!(
                "train: reloaded v2 top_k({TOP_K}) seeds and gain bits equal the frozen model's"
            ),
            reference.seeds == trained.selection.seeds
                && bits(&reference) == bits(&trained.selection)
                && reference.seeds.len() == TOP_K.min(trained.loaded.num_users()),
        );
    }
    Ok(reps)
}

/// One repetition: train to a v2 file (`work_s`), load it
/// [`SETUP_CYCLES`] times (`setup_s` is their median), select the top-k
/// (the latency sample).
fn rep(ctx: &mut Ctx) -> Result<(Rep, Trained), String> {
    let threads = Parallelism::fixed(ctx.threads);
    let files = ctx.files.clone();
    let (trained, train_s) = ctx.rec.span("train", |r| -> Result<_, String> {
        let (inputs, _) = r.span("actionlog.decode", |_| read_inputs(&files));
        let (graph, log) = inputs?;
        let (policy, _) = r.span("core.policy", |_| CreditPolicy::time_aware(&graph, &log));
        let (store, _) = r.span("core.scan", |_| scan_with(&graph, &log, &policy, LAMBDA, threads));
        let store = store.map_err(|e| e.to_string())?;
        let entries = store.total_entries();
        let ((mutable, frozen), _) = r.span("core.freeze", |_| {
            let mutable = ModelSnapshot::from_store(store);
            let frozen = mutable.freeze();
            (mutable, frozen)
        });
        let (saved, _) =
            r.span("serve.save", |_| frozen.save_as(&files.trained_model(), SnapshotFormat::V2));
        saved.map_err(|e| format!("saving the trained snapshot: {e}"))?;
        // Everything but the frozen model is returned so that it is
        // dropped after the clock stops, as a finished `cdim train` would.
        Ok((graph, log, policy, mutable, frozen, entries))
    });
    let (graph, log, policy, mutable, frozen, entries) = trained?;
    let tuples = log.num_tuples();
    drop((graph, log, policy, mutable));

    let mut loads = Vec::with_capacity(SETUP_CYCLES);
    let mut loaded = None;
    for _ in 0..SETUP_CYCLES {
        // One loaded model at a time, so the repeats leave peak RSS as is.
        drop(loaded.take());
        let (model, secs) =
            ctx.rec.span("serve.load", |_| ModelSnapshot::load(&files.trained_model()));
        loaded = Some(model.map_err(|e| format!("loading the trained snapshot: {e}"))?);
        loads.push(secs);
    }
    let loaded = loaded.expect("SETUP_CYCLES > 0");
    let setup_s = median(&loads).expect("SETUP_CYCLES > 0");
    let (selection, topk_s) = ctx.rec.span("core.celf", |_| loaded.top_k(TOP_K));

    ctx.attempted += 1;
    ctx.value("tuples", tuples as f64);
    ctx.value("core.scan_entries", entries as f64);
    ctx.value("core.celf_evals", selection.evaluations as f64);
    ctx.value("serve.snapshot_mb", file_mb(&files.trained_model()));
    let rep = Rep {
        setup_s,
        work_s: train_s,
        items: tuples as f64,
        latencies_s: vec![topk_s],
        ..Rep::default()
    };
    Ok((rep, Trained { frozen, loaded, selection }))
}

fn read_inputs(files: &Files) -> Result<(DirectedGraph, ActionLog), String> {
    let open = |p: &std::path::Path| File::open(p).map_err(|e| format!("{}: {e}", p.display()));
    let graph = storage::read_graph(open(&files.graph())?).map_err(|e| e.to_string())?;
    let log = storage::read_action_log(open(&files.log())?, graph.num_nodes())
        .map_err(|e| e.to_string())?;
    Ok((graph, log))
}

/// Size of a file in MB (0 when missing).
pub fn file_mb(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / MB)
}

/// Effective scan parallelism: one single-threaded and one scan at the
/// resolved thread count over the workload's log, `1-thread ÷ N-thread`.
pub fn scan_speedup(ctx: &Ctx) -> Result<f64, String> {
    let (graph, log) = read_inputs(&ctx.files)?;
    let policy = CreditPolicy::time_aware(&graph, &log);
    let time = |p: Parallelism| -> Result<f64, String> {
        let start = std::time::Instant::now();
        let store = scan_with(&graph, &log, &policy, LAMBDA, p).map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        drop(store);
        Ok(secs)
    };
    let single = time(Parallelism::single())?;
    let parallel = time(Parallelism::fixed(ctx.threads))?;
    Ok(single / parallel)
}

/// Times the compact/mutable query engine directly, with no cache:
/// `single_marginal_gain` over the mix's distinct single-seed keys and
/// `telescoped_spread` over its distinct 3-seed keys.
pub fn model_probe(ctx: &mut Ctx, model: &ModelSnapshot) -> Result<(), String> {
    let mut queries = requests::load(&ctx.files.requests())?;
    queries.sort();
    queries.dedup();
    let singles = queries.iter().filter_map(|q| match q {
        Query::Spread(s) if s.len() == 1 => Some(s[0]),
        _ => None,
    });
    for x in singles.take(200) {
        let (gain, _) = ctx.rec.span("core.mg", |_| model.single_marginal_gain(x));
        std::hint::black_box(gain);
    }
    let triples: Vec<Vec<u32>> = queries
        .iter()
        .filter_map(|q| match q {
            Query::Spread(s) if s.len() == 3 => Some(s.clone()),
            _ => None,
        })
        .take(20)
        .collect();
    for seeds in &triples {
        let (sigma, _) = ctx.rec.span("core.spread3", |_| model.telescoped_spread(seeds));
        std::hint::black_box(sigma);
    }
    Ok(())
}
